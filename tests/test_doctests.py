import doctest
import importlib
import pkgutil

import pytest

import nrquot
import nrquot.betti
import nrquot.exactnum
import nrquot.localize
import nrquot.polyring

MODULES = [nrquot.exactnum, nrquot.polyring, nrquot.localize, nrquot.betti]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    extraglobs = {}
    if module in (nrquot.polyring, nrquot.localize):
        from fractions import Fraction

        from nrquot.polyring import MultiPoly

        extraglobs = {"MultiPoly": MultiPoly, "Fraction": Fraction}
    if module is nrquot.betti:
        from nrquot.betti import QuotientDims, poincare_uhat
        from nrquot.exactnum import TruncSeries

        extraglobs = {
            "QuotientDims": QuotientDims,
            "poincare_uhat": poincare_uhat,
            "TruncSeries": TruncSeries,
        }
    result = doctest.testmod(module, extraglobs=extraglobs, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


# Every module with an export list; __main__ is left out because importing it
# runs the command line.
EXPORTING = [
    module
    for module in (
        importlib.import_module("nrquot." + info.name)
        for info in pkgutil.iter_modules(nrquot.__path__)
        if info.name != "__main__"
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
