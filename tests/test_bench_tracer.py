"""The benchmark's `--trace 1` tracer rebinds library names by `getattr`; every traced name must resolve."""

import importlib.util
import sys
from pathlib import Path

import gcn_cert
import gcn_cert.cli  # noqa: F401  (the tracer wraps names in every gcn_cert module)

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
