import importlib
import pkgutil

import pytest

import gcn_cert

MODULES = sorted(m.name for m in pkgutil.iter_modules(gcn_cert.__path__))


def test_every_module_is_checked():
    assert {"bounds", "dual_cert", "grad", "robust_train"} <= set(MODULES)


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_export_resolves(module):
    """Each name in `__all__` of the package and of each module is an attribute of it."""
    mod = importlib.import_module(f"gcn_cert.{module}" if module else "gcn_cert")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), f"{mod.__name__}: duplicate names in __all__"
    assert [n for n in names if not hasattr(mod, n)] == [], f"{mod.__name__}: stale names in __all__"
