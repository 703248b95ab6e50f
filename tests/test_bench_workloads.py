"""The library calls the benchmark makes must keep working.

`bench/workloads.py` re-derives every certificate through `dual_state`,
`class_vector`, `optimize_omega` on one class vector, `primal_attack.construct`
and `forward_sliced(...).logits`, and reads `DualState.value`, `.s_q` and
`.delta`. Every workload loads its dataset with `cli.load_dataset` from the
files `bench/fixtures.write_tsv` writes. A change to any of them fails here
before it fails a benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_graphs_equal
from gcn_cert import cli, dual_cert, gcn, oracle

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
