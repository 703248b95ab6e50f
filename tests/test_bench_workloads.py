"""The library calls the benchmark makes must keep working.

`bench/workloads.py` re-derives every certificate through `dual_state`,
`class_vector`, `optimize_omega` on one class vector, `primal_attack.construct`
and `forward_sliced(...).logits`, and reads `DualState.value`,
`Perturbation.flips` and `.perturbed_attrs`. Every workload loads its dataset with `cli.load_dataset` from the
files `bench/fixtures.write_tsv` writes, and its checkpoint with
`gcn.load_checkpoint` from the file `bench/fixtures.checkpoint` writes. A
change to any of them fails here before it fails a benchmark run.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_graphs_equal
from gcn_cert import Budget, cli, dual_cert, gcn, oracle, robust_train

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.fixture
def bench_fixtures(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("fixtures")


@pytest.mark.parametrize("mode", ["default", "optimized"])
def test_check_certificate_finds_no_violation_on_tiny_instances(workloads, mode):
    rng = np.random.default_rng(3)
    seen = set()
    for i in range(60):
        sp, params, budget = oracle.random_tiny_instance(rng, hidden_layers=1 + i % 2)
        y = gcn.predict(gcn.forward_sliced(sp, params))
        cert = dual_cert.certify(sp, params, budget, y, mode=mode)
        assert workloads.check_certificate(sp, params, budget, cert, mode) == [], f"draw {i}"
        seen.add(cert.status)
    assert seen == {dual_cert.ROBUST, dual_cert.NON_ROBUST, dual_cert.UNDECIDED}


@pytest.mark.parametrize("shape", ["rhu", "curve"])
def test_load_dataset_reads_the_fixture_files_back(tmp_path, bench_fixtures, shape):
    """The loaded Graph is the one `fixtures.to_graph` builds from the same draw."""
    s = bench_fixtures.SHAPES[shape]
    ds = bench_fixtures.generate(s, 0)
    paths = bench_fixtures.write_tsv(ds, str(tmp_path))
    bundle = cli.load_dataset(
        paths["edges"], paths["attributes"], paths["labels"], paths["split"], num_classes=s.num_classes
    )
    assert_graphs_equal(bundle.graph, bench_fixtures.to_graph(ds, s.num_classes))


def _committed_arrays(bench_fixtures, shape):
    with np.load(bench_fixtures.committed_checkpoint(bench_fixtures.SHAPES[shape])) as z:
        return {name: z[name] for name in z.files}


def _assert_params_hold_bitwise(params, arrays):
    layers = len(arrays) // 2
    assert len(params.weights) == len(params.biases) == layers
    for l in range(layers):
        for got, want in ((params.weights[l], arrays[f"w{l}"]), (params.biases[l], arrays[f"b{l}"])):
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", ["curve", "pga"])
def test_fixture_checkpoint_loads_back_bitwise(tmp_path, bench_fixtures, shape):
    """The file `fixtures.checkpoint` writes for a run holds the committed arrays, every bit."""
    path = bench_fixtures.checkpoint(bench_fixtures.SHAPES[shape], str(tmp_path))
    _assert_params_hold_bitwise(gcn.load_checkpoint(path), _committed_arrays(bench_fixtures, shape))


@pytest.mark.parametrize("shape", ["coraml", "pga", "curve"])
def test_committed_checkpoint_loads_directly(bench_fixtures, shape):
    path = bench_fixtures.committed_checkpoint(bench_fixtures.SHAPES[shape])
    _assert_params_hold_bitwise(gcn.load_checkpoint(path), _committed_arrays(bench_fixtures, shape))


@pytest.mark.parametrize("name", ["certify-coraml", "certify-pga", "curve-sweep"])
def test_recorded_certificates_replay(tmp_path, workloads, bench_fixtures, name):
    """Every seed-0 node that `bench/reference.json` records for a workload, certified as the
    workload certifies it, keeps the certificate contract and is no weaker than its recording."""
    w = workloads.WORKLOADS[name]
    shape = bench_fixtures.SHAPES[w.shape]
    paths = bench_fixtures.write_tsv(bench_fixtures.generate(shape, 0), str(tmp_path))
    params, graph, mp = workloads.load_model(paths, bench_fixtures.committed_checkpoint(shape))
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        recorded = json.load(fh)[name]["seeds"]["0"]
    budget = Budget(robust_train.default_local_budget(graph.num_features), w.Q)
    records = [(t, *workloads.certify_node(graph, mp, params, budget, t, w.mode)) for t in map(int, recorded)]
    out = workloads.Outcome()
    workloads.check_all(out, records, params, budget, w.mode)
    assert workloads.check_reference(w, 0, out)
    assert set(out.certificates) == set(recorded)
    assert out.failures == []
