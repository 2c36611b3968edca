import os
import random
from fractions import Fraction

import pytest

from weilaut.parsing import parse_specfile
from weilaut.weil import build_algebra
from weilaut.endo import (
    ConstraintSystem,
    constraint_system,
    generic_endo,
    numeric_instantiate,
)
from weilaut.scalar import QQ, ExtensionField
from weilaut.poly import Polynomial, PolyRing
from weilaut.solver import (
    Branch,
    INCONSISTENT,
    Contradiction,
    ContradictionSignal,
    Residual,
    SolutionFamily,
    _normalized_equations,
    _rule_linear_bind,
    classify_det1,
    close_branch,
    component_count,
    solve,
)
from weilaut.specdata import spec_path


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus.alg")


def load(name):
    with open(spec_path(name)) as fh:
        specs = parse_specfile(fh.read())
    return build_algebra(specs[0])


def load_corpus(name):
    with open(CORPUS) as fh:
        specs = parse_specfile(fh.read())
    return build_algebra(next(s for s in specs if s.name == name))


def solve_algebra(name):
    endo = generic_endo(load(name))
    return endo, solve(constraint_system(endo))


@pytest.fixture(scope="module")
def tangent2_result():
    return solve_algebra("tangent2")


@pytest.fixture(scope="module")
def quartic_result():
    return solve_algebra("quartic")


@pytest.fixture(scope="module")
def sextic_result():
    return solve_algebra("sextic")


def tiny_system(ring, equations, nondeg):
    return ConstraintSystem(ring, equations, [nondeg], [], ring.vars)


def family_summary(fam):
    return (
        fam.path,
        tuple(sorted((k, repr(v)) for k, v in fam.bindings.items())),
        fam.free,
        fam.nonzero,
        repr(fam.nondeg_value),
    )


# -- small synthetic systems, one per rewriting rule -------------------------


def test_linear_bind_prefers_latest_unknown():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    res = solve(tiny_system(ring, [W - U - V], ring.one()))
    fam, = res.families
    assert fam.path == ("W = U + V",)
    assert {k: repr(v) for k, v in fam.bindings.items()} == {"W": "U + V"}
    assert fam.free == ("U", "V")
    assert fam.nonzero == ()


def test_linear_bind_falls_through_an_inexact_division():
    # under A != 0 both candidates have the guarded coefficient A; the top
    # ranked one, C (the later unknown), would need B^2 / A, which is not a
    # polynomial, so the next one binds B = -A
    ring = PolyRing(("A", "B", "C"), QQ)
    A, B, C = (ring.var(n) for n in "ABC")
    br = Branch(ring, [A * C + B**2, A * B + A**2], A, {}, [A], (), 0)
    out = _rule_linear_bind(br, br.guard_vars())
    assert out.path == ("B = -A",)
    assert {k: repr(v) for k, v in out.bindings.items()} == {"B": "-A"}
    assert [repr(p) for p in out.equations] == ["A^2 + A*C", "0"]
    # without the guard no coefficient is invertible
    assert _rule_linear_bind(br, frozenset()) is None


def test_pure_power_pair_with_rational_root():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(tiny_system(ring, [U**3 - V**3 * 8], ring.one()))
    fam, = res.families
    assert fam.path == ("V = 1/2*U",)
    assert {k: repr(v) for k, v in fam.bindings.items()} == {"V": "1/2*U"}
    assert fam.free == ("U", "W")


def test_pure_power_pair_adjoins_a_cube_root():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(tiny_system(ring, [U**3 + V**3 * 4], U))
    fam, = res.families
    assert fam.path == ("adjoin c, c^3 = 4; U = (-c)*V",)
    assert {k: repr(v) for k, v in fam.bindings.items()} == {"U": "(-c)*V"}
    dom = fam.ring.domain
    assert isinstance(dom, ExtensionField)
    assert dom.minpoly == (Fraction(-4), Fraction(0), Fraction(0), Fraction(1))
    assert dom.degree == 3
    # the bound value is a nonzero multiple of V, so V turns strict
    assert fam.nonzero == ("V",)
    assert classify_det1(fam) == "R\\{0}"
    assert component_count(res) == 2


def test_content_split_guards_the_complement():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    res = solve(tiny_system(ring, [U * V + U * W], ring.one()))
    assert [family_summary(f) for f in res.families] == [
        (("U = 0",), (("U", "0"),), ("V", "W"), (), "1"),
        (
            ("U != 0; V + W = 0", "W = -V"),
            (("W", "-V"),),
            ("U", "V"),
            ("U",),
            "1",
        ),
    ]
    assert component_count(res) == 3


def test_quadratic_split_guards_only_the_minus_branch():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(tiny_system(ring, [U**2 - V**2], ring.one()))
    plus, minus = res.families
    assert plus.path == ("U = V",)
    assert plus.nonzero == ()
    assert minus.path == ("2*V != 0", "U = -V")
    assert minus.nonzero == ("V",)
    assert component_count(res) == 3


def test_univariate_even_power_splits_into_both_roots():
    ring = PolyRing(("U",), QQ)
    u = ring.var("U")
    res = solve(tiny_system(ring, [u**2 - 4], ring.one()))
    assert [family_summary(f)[:2] for f in res.families] == [
        (("U = 2",), (("U", "2"),)),
        (("4 != 0", "U = -2"), (("U", "-2"),)),
    ]


def test_no_real_root_is_a_contradiction():
    ring = PolyRing(("U",), QQ)
    u = ring.var("U")
    res = solve(tiny_system(ring, [u**2 + 1], ring.one()))
    assert res.families == []
    con, = res.contradictions
    assert con.reason == "no-real-solution"
    assert con.detail == "no real value for U"
    assert res.closed()
    assert component_count(res) == 0


def test_irrational_root_stays_residual():
    ring = PolyRing(("U",), QQ)
    u = ring.var("U")
    res = solve(tiny_system(ring, [u**3 - 4], ring.one()))
    resid, = res.residuals
    assert resid.reason == "could not enumerate the roots of U^3 - 4"
    assert not res.closed()
    assert component_count(res) == "undetermined"


def test_vanishing_invertibility_kills_the_branch():
    ring = PolyRing(("U",), QQ)
    u = ring.var("U")
    res = solve(tiny_system(ring, [u], u))
    assert res.families == []
    con, = res.contradictions
    assert con.reason == "nondegeneracy-vanished"


def test_det1_classifications_on_constants_and_monomials():
    ring = PolyRing(("U",), QQ)
    res = solve(tiny_system(ring, [], ring.coerce(3)))
    assert classify_det1(res.families[0]) == "{3}"
    ring2 = PolyRing(("A",), QQ)
    a = ring2.var("A")
    res2 = solve(tiny_system(ring2, [], -(a * a)))
    fam, = res2.families
    assert fam.nonzero == ("A",)
    assert classify_det1(fam) == "(-inf,0)"
    assert component_count(res2) == 2


def test_finite_candidate_rule_closes_power_tower():
    # the pair v^4 = u^3, v^5 = u^4 pins both unknowns to 1 by a resultant
    ring = PolyRing(("B", "P"), QQ)
    B, P = ring.var("B"), ring.var("P")
    res = solve(tiny_system(ring, [P**4 - B**3, P**5 - B**4], B * P))
    fam, = res.families
    assert fam.path == ("B = 1", "P = 1")
    assert {k: repr(v) for k, v in fam.bindings.items()} == {"B": "1", "P": "1"}
    assert fam.free == () and fam.nonzero == ()
    con, = res.contradictions
    assert con.path == ("B = 0",)
    assert con.reason == "nondegeneracy-vanished"
    assert component_count(res) == 1


def test_depth_limit_reports_a_residual():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    res = solve(tiny_system(ring, [U * V + U * W], ring.one()), max_depth=0)
    resid, = res.residuals
    assert resid.reason == "branch depth limit"
    assert component_count(res) == "undetermined"


def _three_unknowns_on_a_sphere():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    return ring, [U**2 + V**2 + W**2 - 1]


def _one_curve_in_two_unknowns():
    ring = PolyRing(("U", "V"), QQ)
    U, V = ring.var("U"), ring.var("V")
    return ring, [U**2 + V**2 - 1]


def _two_curves_with_a_common_factor():
    # the resultant in V of a circle and a multiple of it is zero
    ring = PolyRing(("U", "V"), QQ)
    U, V = ring.var("U"), ring.var("V")
    circle = U**2 + V**2 - 1
    return ring, [circle, circle * (U + 2)]


def _a_content_split():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    return ring, [U * V + U * W]


@pytest.mark.parametrize(
    "make, budget, expected",
    [
        (_three_unknowns_on_a_sphere, 512, [((), "no finishing rule for 3 unknowns")]),
        (_one_curve_in_two_unknowns, 512, [((), "underdetermined pair in U, V")]),
        (_two_curves_with_a_common_factor, 512, [((), "resultant in V vanished")]),
        (
            _a_content_split,
            1,
            [
                (("U = 0",), "branch budget exhausted"),
                (("U != 0; V + W = 0",), "branch budget exhausted"),
            ],
        ),
    ],
)
def test_every_residual_reason_through_solve(make, budget, expected):
    ring, equations = make()
    res = solve(tiny_system(ring, equations, ring.one()), branch_budget=budget)
    assert [(r.path, r.reason) for r in res.residuals] == expected
    assert res.families == [] and res.contradictions == []
    assert component_count(res) == "undetermined"


def test_each_split_child_counts_toward_the_depth_limit():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    res = solve(tiny_system(ring, [U * (V**2 + W**2 - 1)], ring.one()), max_depth=1)
    fam, = res.families
    assert fam.path == ("U = 0",)
    resid, = res.residuals
    assert resid.path == ("U != 0; V^2 + W^2 - 1 = 0",)
    assert resid.reason == "branch depth limit"
    assert [repr(p) for p in resid.equations] == ["V^2 + W^2 - 1"]
    assert resid.guards == [U]


def test_close_branch_settles_a_guarded_pair_over_an_extension():
    # over Q[c] with c^3 = 4, these two curves only meet where the guard
    # A - cB vanishes, so the branch dies with no real solution
    field = ExtensionField((-4, 0, 0, 1), (1, 2))
    ring = PolyRing(("A", "B"), field)
    c = field.gen()
    A, B = ring.var("A"), ring.var("B")
    e1 = A**3 * c - B**3 * c - A * B**2 * 3
    e2 = A**2 - A * B - B**2 * c
    br = Branch(ring, [e1, e2], ring.one(), {}, [A - B * c], ("bracket",), 0)
    leaves = close_branch(br)
    assert len(leaves) == 1
    leaf = leaves[0]
    assert isinstance(leaf, Contradiction)
    assert leaf.reason == "no-real-solution"
    assert "eliminated B by resultant" in leaf.detail
    assert "A = 0 (inconsistent-constants)" in leaf.detail


def test_close_branch_finishes_each_root_child():
    # called directly, close_branch reaches the arms solve() never does: a
    # root child with no equations left becomes a family, and a child that
    # still has equations is finished by recursion
    ring = PolyRing(("U", "V"), QQ)
    U, V = ring.var("U"), ring.var("V")

    def leaves(equations):
        return close_branch(Branch(ring, equations, ring.one(), {}, [], ("t",), 0))

    fams = leaves([U**2 - 1])
    assert all(isinstance(f, SolutionFamily) for f in fams)
    assert [f.path for f in fams] == [("t", "U = -1"), ("t", "U = 1")]

    fams = leaves([U**2 - 1, U * V - 1])
    assert all(isinstance(f, SolutionFamily) for f in fams)
    assert [f.bindings["V"] for f in fams] == [ring.const(-1), ring.const(1)]

    res = leaves([U**2 - 1, V**2 - 2])
    assert all(isinstance(r, Residual) for r in res)
    assert [r.reason for r in res] == ["could not enumerate the roots of V^2 - 2"] * 2


# -- the shipped algebras ----------------------------------------------------


def test_tangent_pair_families(tangent2_result):
    endo, res = tangent2_result
    assert res.closed()
    assert [family_summary(f) for f in res.families] == [
        (
            ("A = 0", "D != 0", "E = 0"),
            (("A", "0"), ("E", "0")),
            ("B", "C", "D", "F"),
            ("B", "D"),
            "-B*D",
        ),
        (
            ("A != 0", "B = 0", "D = 0"),
            (("B", "0"), ("D", "0")),
            ("A", "C", "E", "F"),
            ("A", "E"),
            "A*E",
        ),
    ]
    assert [classify_det1(f) for f in res.families] == ["R\\{0}", "R\\{0}"]
    assert [(c.path, c.reason) for c in res.contradictions] == [
        (("A = 0", "D = 0"), "nondegeneracy-vanished"),
        (("A != 0", "B = 0", "D != 0", "E = 0"), "nondegeneracy-vanished"),
    ]
    assert component_count(res) == 8


def test_tangent_families_are_disjoint(tangent2_result):
    endo, res = tangent2_result
    first, second = res.families
    zeros = {k for k, v in first.bindings.items() if not v}
    # anything in the first family violates a strict inequality of the second
    assert zeros & set(second.nonzero)


def test_quartic_single_family(quartic_result):
    endo, res = quartic_result
    assert res.closed()
    fam, = res.families
    assert fam.path == ("J = 0", "A != 0", "B = 0", "K = A", "M = C")
    assert {k: repr(v) for k, v in sorted(fam.bindings.items())} == {
        "B": "0",
        "J": "0",
        "K": "A",
        "M": "C",
    }
    assert fam.free == (
        "A", "C", "D", "E", "F", "G", "H", "I", "L", "N", "P", "Q", "R", "S",
    )
    assert fam.nonzero == ("A",)
    assert repr(fam.nondeg_value) == "A^2"
    assert classify_det1(fam) == "(0,inf)"
    assert component_count(res) == 2


def test_quartic_dead_branches(quartic_result):
    endo, res = quartic_result
    assert [(c.path, c.reason) for c in res.contradictions] == [
        (("J = 0", "A = 0"), "nondegeneracy-vanished"),
        (
            (
                "J != 0; J^3 + 4*K^3 = 0",
                "adjoin c, c^3 = 4; J = (-c)*K",
                "A = (1/2*c)*B",
            ),
            "inconsistent-constants",
        ),
        (
            (
                "J != 0; J^3 + 4*K^3 = 0",
                "adjoin c, c^3 = 4; J = (-c)*K",
                "(3/2*c)*B != 0",
                "A = (-c)*B",
            ),
            "nondegeneracy-vanished",
        ),
    ]
    assert res.contradictions[1].detail == (
        "equation 3*B^3 reduces to the nonzero constant 3"
    )


def test_sextic_closes_to_one_component(sextic_result):
    endo, res = sextic_result
    assert res.closed()
    fam, = res.families
    assert {k: repr(v) for k, v in sorted(fam.bindings.items())} == {
        "A": "0",
        "B": "1",
        "C": "0",
        "E": "-D + 4/3*R + 4/3*S",
        "F": "-4/45*R - 4/45*S",
        "I": "-8/45*D*R - 8/45*D*S + 22/45*R^2 + 32/45*R*S + 2/9*S^2"
             " - G - H + 4/3*U + 4/3*V + 4/3*W",
        "P": "1",
        "Q": "0",
        "T": "1/15*R + 1/15*S",
    }
    assert fam.free == (
        "D", "G", "H", "J", "K", "L", "M", "N", "R", "S",
        "U", "V", "W", "Z", "A1", "B1", "C1", "D1", "E1",
    )
    assert fam.nonzero == () and fam.conditions == ()
    assert repr(fam.nondeg_value) == "1"
    assert classify_det1(fam) == "{1}"
    for atom in ("A = 0", "P != 0", "B = 1", "P = 1"):
        assert atom in fam.path
    assert sorted(c.reason for c in res.contradictions) == [
        "inconsistent-constants",
        "inconsistent-constants",
        "nondegeneracy-vanished",
    ]
    assert component_count(res) == 1


# -- soundness against the numeric oracle ------------------------------------


def random_family_point(fam, rng):
    vals = {}
    for v in fam.free:
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        while v in fam.nonzero and x == 0:
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        vals[v] = x
    point = dict(vals)
    for name, value in fam.bindings.items():
        point[name] = value.evaluate(vals)
    return point


@pytest.mark.parametrize("name", ["tangent2", "quartic", "sextic"])
def test_family_points_are_automorphisms(name):
    endo, res = solve_algebra(name)
    rng = random.Random(20240 + len(name))
    assert res.families
    for fam in res.families:
        if fam.ring.domain is not QQ:
            continue
        for _ in range(3):
            point = random_family_point(fam, rng)
            n = numeric_instantiate(endo, point)
            assert n.is_homomorphism
            assert n.is_automorphism


def test_solver_is_deterministic():
    def snapshot(name):
        endo, res = solve_algebra(name)
        fams = [family_summary(f) for f in res.families]
        cons = [(c.path, c.reason, c.detail) for c in res.contradictions]
        return fams, cons, component_count(res)

    assert snapshot("quartic") == snapshot("quartic")
    assert snapshot("sextic") == snapshot("sextic")


# -- equation normalization against an independent reference -------------------


def strip_reference(p, guard_vars):
    """p divided by the largest monomial in the guarded variables dividing it."""
    ring = p.ring
    low = [0] * len(ring.vars)
    for v in guard_vars:
        i = ring.index[v]
        low[i] = min(e[i] for e in p.terms)
    return Polynomial(ring, {tuple(k - d for k, d in zip(e, low)): c for e, c in p.terms.items()})


def normalized_reference(equations, guard_vars):
    by_repr = {}
    for p in equations:
        if p.terms:
            q = strip_reference(p, guard_vars).primitive()
            by_repr.setdefault(repr(q), q)
    return sorted(
        by_repr.values(),
        key=lambda q: (max(sum(e) for e in q.terms), len(q.terms), repr(q)),
    )


@pytest.mark.parametrize("name", ["tangent2", "quartic", "sextic", "tan3"])
def test_normalized_equations_match_a_reference(name):
    algebra = load_corpus(name) if name == "tan3" else load(name)
    system = constraint_system(generic_endo(algebra))
    ring = system.ring
    eqs = list(system.equations)
    # scaled and shifted copies, so dedup and content stripping both fire
    U = ring.var(system.unknowns[0])
    eqs += [p * Fraction(-3, 2) for p in eqs[:4]] + [p * U for p in eqs[-3:]] + [ring.zero()]
    content = sorted(
        {ring.vars[i] for p in eqs if p for i, e in enumerate(p.content_exps()) if e},
        key=ring.index.get,
    )
    guard_sets = [set(), set(content[:3]), {system.unknowns[0], system.unknowns[-1]}]
    for guard_vars in guard_sets:
        # an equation that is a guarded monomial is a contradiction on its own
        constant = [p for p in eqs if p and strip_reference(p, guard_vars).is_constant()]
        for p in constant:
            with pytest.raises(ContradictionSignal) as info:
                _normalized_equations([p], guard_vars)
            assert info.value.reason == INCONSISTENT
        kept = [p for p in eqs if p not in constant]
        got = _normalized_equations(kept, guard_vars)
        ref = normalized_reference(kept, guard_vars)
        assert ref
        assert [repr(q) for q in got] == [repr(q) for q in ref]
        assert [list(q.terms.items()) for q in got] == [list(q.terms.items()) for q in ref]
