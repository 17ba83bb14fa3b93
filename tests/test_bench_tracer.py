"""The benchmark's tracer wraps fptlib's module attributes by name.  This
checks that every name it wraps exists, that a traced run records spans and
counts, and that uninstalling restores each attribute."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "fptbench"))

import tracer  # noqa: E402
from clock import Clock  # noqa: E402

import fptlib  # noqa: E402
from fptlib import FieldSpec, HomForm  # noqa: E402


def _wrapped_attributes():
    targets = [(module, attr) for module, attr, _ in tracer.FUNCTION_SPANS]
    targets += [(HomForm, "monic"), (HomForm, "from_coeffs"), (FieldSpec, "__init__")]
    targets += [(FieldSpec, attr) for attr in tracer.COUNTED]
    return targets


def _work():
    # through the package's attributes, as the benchmark calls fptlib
    fptlib.census(3, 3)
    fptlib.fpt_binary_exact(fptlib.parse_form("x^5+y^5", FieldSpec(7)))
    fptlib.fpt_binary_exact(fptlib.parse_form("x^2*y+x*y^2+y^3", FieldSpec(2, 2)), e_cap=2)
    fptlib.fpt_general(fptlib.parse_form("x1^2*x2+x3^3", FieldSpec(5), n=3), e_cap=2)


def test_install_wraps_and_uninstall_restores():
    targets = _wrapped_attributes()
    before = [owner.__dict__[attr] for owner, attr in targets]
    t = tracer.Tracer(Clock())
    for mode in ("timing", "counting"):
        t.reset()
        t.install(mode)
        try:
            assert any(owner.__dict__[attr] is not old
                       for (owner, attr), old in zip(targets, before))
            _work()
        finally:
            t.uninstall()
        assert all(owner.__dict__[attr] is old
                   for (owner, attr), old in zip(targets, before)), mode
        if mode == "timing":
            names = {rec[0] for rec in t.spans}
            assert {"fpt", "squarefree", "census", "nu", "member", "perfect_power"} <= names
            assert t.counts["fpt_top"] >= 3
        else:
            assert t.counts["muli"] > 0 and t.counts["addi"] > 0
