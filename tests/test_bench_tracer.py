"""The benchmark's `--trace 1` tracer rebinds library names by `getattr`; every traced name must resolve."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import gcn_cert
import gcn_cert.cli  # noqa: F401  (the tracer wraps names in every gcn_cert module)
from gcn_cert import dual_cert, gcn
from gcn_cert.bounds import Budget

from oracle import random_tiny_instance

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(modname, attr):
    owner = sys.modules[f"gcn_cert.{modname}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_every_traced_name():
    tracer_mod = _load_tracer()
    before = {(m, a): _binding(m, a) for _, m, a in tracer_mod.TRACED}
    var_init = gcn_cert.grad.Var.__init__
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (m, a), original in before.items():
            assert _binding(m, a) is not original, f"{m}.{a} was not wrapped"
    finally:
        tracer.uninstall()
    for (m, a), original in before.items():
        assert _binding(m, a) is original, f"{m}.{a} was not restored"
    assert gcn_cert.grad.Var.__init__ is var_init


def test_tracer_sees_one_bound_computation_per_evaluated_curve_budget(monkeypatch):
    """`status_curve` computes its bounds through the traced `compute_bounds` and `first_layer_bounds`:
    one span of each for every budget it evaluates, and none for a budget whose status it carries."""
    sp, params, budget = random_tiny_instance(np.random.default_rng(3))
    y_star = gcn.predict(gcn.forward_sliced(sp, params))
    curve = Budget(budget.local_q, budget.global_Q + 2)
    duals, evaluated = dual_cert.duals, []

    def record(sp, params, budget, y_star, mode="default", table=None):
        evaluated.append(budget)
        return duals(sp, params, budget, y_star, mode, table)

    monkeypatch.setattr(dual_cert, "duals", record)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        with tracer.on():
            dual_cert.status_curve(sp, params, curve, y_star)
    finally:
        tracer.uninstall()
    spans = [tracer.names[row[0]] for row in tracer.spans]
    assert 0 < len(evaluated) < curve.global_Q + 1
    assert spans.count("bounds.compute_bounds") == spans.count("bounds.first_layer_bounds") == len(evaluated)


def test_tracer_sees_one_primal_per_competing_class_of_an_attack(tmp_path):
    """`certify` of a node it finds non-robust attacks it with each competing class's flip set, through the
    traced `construct_and_evaluate`."""
    n, D, K = 12, 10, 3
    rng = np.random.default_rng(1)
    A = np.triu(rng.random((n, n)) < 0.25, 1)
    X = rng.random((n, D)) < 0.3
    edges, attrs, ckpt = tmp_path / "edges.tsv", tmp_path / "attrs.tsv", tmp_path / "model.npz"
    edges.write_text("".join(f"{u}\t{v}\n" for u, v in zip(*np.nonzero(A))))
    attrs.write_text("".join(f"{u}\t{d}\n" for u, d in zip(*np.nonzero(X))))
    gcn.save_checkpoint(gcn.glorot_params([D, 8, K], seed=0), ckpt)
    argv = ["certify", "--checkpoint", str(ckpt), "--edges", str(edges), "--attributes", str(attrs), "--q", "1",
            "--Q", "3"]
    out = tmp_path / "certs.jsonl"
    assert gcn_cert.cli.main([*argv, "--output", str(out)]) == 0
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    node = next(doc["node"] for doc in docs if doc["status"] == dual_cert.NON_ROBUST)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        with tracer.on():
            assert gcn_cert.cli.main([*argv, "--nodes", str(node)]) == 0
    finally:
        tracer.uninstall()
    spans = [tracer.names[row[0]] for row in tracer.spans]
    assert spans.count("primal_attack.construct_and_evaluate") == K - 1
