"""One form per scalar value, checked on everything the pipeline produces.

A rational value is an int when it is integral and a Fraction otherwise; an
irrational one is a FieldElement. Between two ints / gives a float, so a
division that bypassed scalar.field_div would show up here as a float, and a
Fraction arithmetic result that skipped normalization as an integral
Fraction. Every shipped algebra and every bench/corpus.alg probe is walked at
the declared precedence and at the reversed one: the structure constants,
the constraint equations and the invertibility polynomial, every family's
bindings, conditions, nondeg_value and determinants, and every residual's
equations, bindings and guards. No family of those lies over an extension
field, so a solve that adjoins a cube root covers FieldElement coefficients.
"""

import os
from fractions import Fraction

import pytest

from weilaut.endo import ConstraintSystem, extend_to_matrix, linear_matrix, specialize
from weilaut.parsing import parse_specfile
from weilaut.poly import PolyRing
from weilaut.report import analyze
from weilaut.scalar import QQ, FieldElement
from weilaut.solver import solve
from weilaut.specdata import spec_path

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus.alg")


def specs():
    out = []
    for name in ("tangent2", "quartic", "sextic"):
        with open(spec_path(name), encoding="utf-8") as fh:
            out.extend(parse_specfile(fh.read()))
    with open(CORPUS, encoding="utf-8") as fh:
        out.extend(parse_specfile(fh.read()))
    reversed_ = [s.with_precedence(tuple(reversed(s.precedence or s.variables))) for s in out]
    return out + reversed_


SPECS = specs()


def check_scalar(x, where):
    if isinstance(x, FieldElement):
        assert any(x.coeffs[1:]), "%s: FieldElement with a rational value %r" % (where, x)
        for c in x.coeffs:
            assert type(c) in (int, Fraction), "%s: coefficient %r of %r" % (where, c, x)
    else:
        assert type(x) in (int, Fraction), "%s: %r is a %s" % (where, x, type(x).__name__)
        if x.denominator == 1:
            assert type(x) is int, "%s: integral value %r is a Fraction" % (where, x)


def check_polys(polys, where):
    for p in polys:
        for c in p.terms.values():
            check_scalar(c, "%s, %r" % (where, p))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "%s-%s" % (s.name, "".join(s.precedence or s.variables)))
def test_every_coefficient_has_its_one_form(spec):
    analysis = analyze(spec)
    algebra = analysis.algebra
    for row in algebra.structure_pairs:
        for _, pairs in row:
            for _, c in pairs:
                check_scalar(c, "structure constant")
    check_polys(analysis.system.equations, "equation")
    check_polys(analysis.system.nondegeneracy, "invertibility polynomial")
    for fam in analysis.result.families:
        check_polys(fam.bindings.values(), "binding")
        check_polys(fam.conditions, "condition")
        check_polys([fam.nondeg_value], "nondeg_value")
        endo = specialize(analysis.endo, fam.ring, fam.bindings)
        full = extend_to_matrix(endo)
        check_polys([full.det(), linear_matrix(endo).det()], "determinant")
        check_polys(full.diagonal(), "diagonal entry")
    for res in analysis.result.residuals:
        check_polys(res.equations, "residual equation")
        check_polys(res.bindings.values(), "residual binding")
        check_polys(res.guards, "residual guard")


def test_an_extension_field_family_has_one_form_per_coefficient():
    # U^3 + 4*V^3 = 0 adjoins c, c^3 = 4, and binds U = -c*V
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(ConstraintSystem(ring, [U**3 + V**3 * 4], [U * 3 - V], [], ring.vars))
    fam, = res.families
    values = [c for p in fam.bindings.values() for c in p.terms.values()]
    assert values and all(isinstance(c, FieldElement) for c in values)
    check_polys(fam.bindings.values(), "binding")
    check_polys(fam.conditions, "condition")
    check_polys([fam.nondeg_value], "nondeg_value")
    for c in fam.ring.domain.minpoly:
        check_scalar(c, "minimal polynomial")
