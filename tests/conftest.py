import importlib
import sys

import pytest

from blowup_rigidity.cone import EffectiveCone
from blowup_rigidity.fieldgeom import Config
from blowup_rigidity.lattice import BlowupLattice
from blowup_rigidity.report import product_cases, resolve_case


@pytest.fixture(scope="session")
def c0() -> Config:
    """The worked fixture: n=2, r=2, s=(2,3) over F_13."""
    return Config(n=2, r=2, s=(2, 3), q=13, zeta=12, base=((1, 2), (3, 4, 5)))


@pytest.fixture(scope="session")
def c1() -> Config:
    """n=3, r=3, s=(1,2,3) over F_13 (the smallest field that fits: nine
    distinct coordinates are needed on axis 3, which no smaller q = 1 mod 3
    provides while staying generic)."""
    return Config(n=3, r=3, s=(1, 2, 3), q=13, zeta=3, base=((1,), (1, 2), (1, 2, 4)))


@pytest.fixture(scope="session")
def lat0(c0) -> BlowupLattice:
    return BlowupLattice(c0)


@pytest.fixture(scope="session")
def lat1(c1) -> BlowupLattice:
    return BlowupLattice(c1)


@pytest.fixture(scope="session")
def cone0(lat0) -> EffectiveCone:
    return EffectiveCone(lat0)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) wraps those functions for the test, in every
    package module that binds them, and returns the dict of their call
    counts so far, keyed by the names as given.  A name is
    `module.function` (a blowup_rigidity module), `module.Class.method`
    (wrapped on the class) or a bare fieldgeom function name."""
    counts: dict[str, int] = {}

    def install(*names):
        modules = [mod for key, mod in sys.modules.items()
                   if key.startswith("blowup_rigidity.")]
        for name in names:
            path = name.split(".")
            if len(path) == 1:
                path.insert(0, "fieldgeom")
            modname, *owners, attr = path
            owner = importlib.import_module(f"blowup_rigidity.{modname}")
            for cls_name in owners:
                owner = getattr(owner, cls_name)
            real = getattr(owner, attr)
            counts[name] = 0

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            if owners:
                monkeypatch.setattr(owner, attr, counted)
            for mod in modules:
                if vars(mod).get(attr) is real:
                    monkeypatch.setattr(mod, attr, counted)
        return counts

    return install


@pytest.fixture(scope="session")
def sweep_configs() -> list[Config]:
    """24 generic configurations: n in {2..5}, r in {2..4}, two s-variants
    each, smallest workable prime per case."""
    cases = product_cases([2, 3, 4, 5], [2, 3, 4], seed=1, variants=2)
    return [resolve_case(case) for case in cases]
