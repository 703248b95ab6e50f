"""The library calls the benchmark's certificate check makes must keep working.

`bench/workloads.py` re-derives every certificate through `dual_state`,
`class_vector`, `optimize_omega` on one class vector, `primal_attack.construct`
and `forward_sliced(...).logits`, and reads `DualState.value`, `.s_q` and
`.delta`; a change to any of them fails here before it fails a benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from gcn_cert import dual_cert, gcn, oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


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
