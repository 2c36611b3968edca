import os
import random
from fractions import Fraction

import pytest

from weilaut import solver
from weilaut.parsing import parse_specfile
from weilaut.report import analyze, overall_det1_image
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
    _exact_real_roots,
    _normalized_equations,
    _rule_linear_bind,
    _simplify,
    _split_clique,
    classify_det1,
    close_branch,
    component_count,
    solve,
)
from weilaut.specdata import spec_path
from oracles import linear_bind_candidates, trial_division_linear_bind


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


def test_linear_bind_takes_the_constant_lead_left_by_normalization():
    # under A != 0, A*B + A^2 normalizes to A + B, whose constant lead binds
    # B = -A; C keeps the monomial coefficient A in A*C + B^2, so C binds only
    # once that equation has become A*C + A^2 and normalizes to A + C
    ring = PolyRing(("A", "B", "C"), QQ)
    A, B, C = (ring.var(n) for n in "ABC")
    equations = [A * C + B**2, A * B + A**2]
    out = _simplify(Branch(ring, equations, A, {}, [A], (), 0))
    assert out.path == ("B = -A", "C = -A")
    assert {k: repr(v) for k, v in out.bindings.items()} == {"B": "-A", "C": "-A"}
    assert out.equations == []
    # without the guard no unknown has a constant coefficient
    assert _rule_linear_bind(Branch(ring, equations, A, {}, [], (), 0)) is None


def random_bind_equation(rng, ring, guarded):
    """A few random terms plus c*m*u, m a random monomial in the guarded
    variables, sometimes times a guarded variable."""
    p = ring.zero()
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(0, 3) for _ in ring.vars)
        p = p + ring.monomial(exps, rng.choice((-3, -1, 1, 2, Fraction(1, 2))))
    m = ring.var(rng.choice(ring.vars)) * rng.choice((-2, 1, 3))
    for g in guarded:
        if rng.random() < 0.4:
            m = m * g
    p = p + m
    if guarded and rng.random() < 0.3:
        p = p * rng.choice(guarded)
    return p


def test_linear_bind_matches_the_trial_division_reference():
    # on normalized equations, binding by a constant lead picks what trying
    # every guarded-monomial coefficient by exact division picked
    rng = random.Random(61)
    ring = PolyRing(("A", "B", "C", "D"), QQ)
    bound = unbound = monomial_candidates = 0
    for _ in range(400):
        guarded = [ring.var(v) for v in ring.vars if rng.random() < 0.4]
        guards = guarded + ([ring.var("A") + ring.var("B")] if rng.random() < 0.2 else [])
        br = Branch(ring, [], ring.one(), {}, guards, (), 0)
        equations = [random_bind_equation(rng, ring, guarded) for _ in range(rng.randrange(1, 4))]
        try:
            br.equations = _normalized_equations(equations, br.guard_vars())
        except ContradictionSignal:
            continue
        monomial_candidates += sum(
            1 for _, _, m, _ in linear_bind_candidates(br.equations, br.guard_vars()) if any(m)
        )
        ref = trial_division_linear_bind(br.equations, br.guard_vars())
        out = _rule_linear_bind(br)
        if ref is None:
            assert out is None
            unbound += 1
            continue
        u, value = ref[0], ring.poly(ref[1])
        assert out.path == ("%s = %r" % (u, value),)
        assert {k: repr(v) for k, v in out.bindings.items()} == {u: repr(value)}
        want = [p.substitute({u: value}) for p in br.equations]
        assert [list(p.terms.items()) for p in out.equations] == [
            list(p.terms.items()) for p in want
        ]
        bound += 1
    assert bound > 100 and unbound > 20 and monomial_candidates > 50


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
    # both families have two free unknowns; U != 0 does not divide det1 = 1,
    # so it marks the split, not a sign of a component
    assert component_count(res) == 2


def test_a_clique_of_products_splits_in_one_step():
    # U*V = U*W = V*W = 0: at most one of U, V, W is nonzero
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    br = Branch(ring, [U * V, U * W, V * W], ring.one(), {}, [], (), 0)
    specs = _split_clique(br)
    summary = [(atoms, guards, {k: repr(v) for k, v in sub.items()}) for atoms, guards, sub in specs]
    assert summary == [
        (("U != 0", "V = 0", "W = 0"), [U], {"V": "0", "W": "0"}),
        (("V != 0", "U = 0", "W = 0"), [V], {"U": "0", "W": "0"}),
        (("W != 0", "U = 0", "V = 0"), [W], {"U": "0", "V": "0"}),
        (("U = 0", "V = 0", "W = 0"), [], {"U": "0", "V": "0", "W": "0"}),
    ]
    res = solve(tiny_system(ring, [U * V, U * W, V * W], ring.one()))
    assert [f.path for f in res.families] == [atoms for atoms, _, _ in specs]
    assert [f.nonzero for f in res.families] == [("U",), ("V",), ("W",), ()]
    assert not res.contradictions and not res.residuals
    # disjoint: every two families differ on an unknown one binds to 0 and
    # the other holds nonzero
    for i, f in enumerate(res.families):
        for g in res.families[i + 1 :]:
            zeros_f = {k for k, v in f.bindings.items() if not v}
            zeros_g = {k for k, v in g.bindings.items() if not v}
            assert zeros_f & set(g.nonzero) or zeros_g & set(f.nonzero)
    # only the three one-unknown families count, and no guard divides det1 = 1
    assert component_count(res) == 3


def test_two_unknowns_take_the_content_split():
    # a product of two unknowns, as tangent2's A*B, or a star of products
    # that is no clique, leaves the clique split nothing to do
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    for equations in ([U * V], [U * V, U * W]):
        assert _split_clique(Branch(ring, equations, ring.one(), {}, [], (), 0)) is None
    res = solve(tiny_system(ring, [U * V], ring.one()))
    assert [f.path for f in res.families] == [("U = 0",), ("U != 0", "V = 0")]


def test_a_child_whose_det1_vanishes_dies_at_birth():
    # det1 = U: of the clique split's four children only U != 0 lives, so
    # the root and that child fit a budget of two branches; the dead three
    # are recorded, never queued or charged
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V, W = (ring.var(n) for n in "UVW")
    res = solve(tiny_system(ring, [U * V, U * W, V * W], U), branch_budget=2)
    assert res.residuals == []
    fam, = res.families
    assert fam.path == ("U != 0", "V = 0", "W = 0")
    assert [(c.path, c.reason, c.detail) for c in res.contradictions] == [
        (atoms, "nondegeneracy-vanished", "the invertibility determinant vanished identically")
        for atoms in (
            ("V != 0", "U = 0", "W = 0"),
            ("W != 0", "U = 0", "V = 0"),
            ("U = 0", "V = 0", "W = 0"),
        )
    ]


def test_quadratic_split_guards_only_the_minus_branch():
    ring = PolyRing(("U", "V", "W"), QQ)
    U, V = ring.var("U"), ring.var("V")
    res = solve(tiny_system(ring, [U**2 - V**2], ring.one()))
    plus, minus = res.families
    assert plus.path == ("U = V",)
    assert plus.nonzero == ()
    assert minus.path == ("2*V != 0", "U = -V")
    assert minus.nonzero == ("V",)
    # V != 0 does not divide det1 = 1: one component per family
    assert component_count(res) == 2


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


def test_rational_roots_are_found_over_an_extension():
    # over Q[c] with c^3 = 4 a cubic with rational coefficients still has
    # its rational roots tried, as over Q
    field = ExtensionField((-4, 0, 0, 1), (1, 2))
    ring = PolyRing(("U",), field)
    U = ring.var("U")
    res = solve(tiny_system(ring, [U**3 - 6 * U**2 + 11 * U - 6], ring.one()))
    assert [f.path for f in res.families] == [("U = 1",), ("U = 2",), ("U = 3",)]
    assert res.residuals == []


def test_rational_roots_of_an_int_coefficient_list():
    # ints are the form of integral coefficients, so an all-int list must
    # get its rational-root candidates as a list of Fractions does
    roots, complete = _exact_real_roots([-6, 11, -6, 1], QQ)
    assert roots == [1, 2, 3] and complete
    assert all(type(r) is int for r in roots)
    roots, complete = _exact_real_roots([0, -1, 0, 4], QQ)
    assert roots == [Fraction(-1, 2), 0, Fraction(1, 2)] and complete
    assert [type(r) for r in roots] == [Fraction, int, Fraction]


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


def test_finite_split_and_close_branch_share_the_real_values():
    # equations in U with no common root: the finite split and close_branch
    # take the (empty) values of U from one routine, and each names it its way
    ring = PolyRing(("U",), QQ)
    U = ring.var("U")

    def closed(equations):
        leaf, = close_branch(Branch(ring, equations, ring.one(), {}, [], (), 0))
        assert isinstance(leaf, Contradiction)
        return leaf.reason, leaf.detail

    dead = ("no-real-solution", "one unknown U left; candidates: none real")
    assert closed([U**2 - 1, U - 2]) == dead
    assert closed([U**3 - 2, U**3 - 3]) == dead
    # no rule binds U here (U - 2 would be bound linearly), so solve() reaches
    # the finite split
    res = solve(tiny_system(ring, [U**3 - 2, U**3 - 3], ring.one()))
    assert not res.families and not res.residuals
    assert [(c.path, c.reason, c.detail) for c in res.contradictions] == [
        ((), "no-real-solution", "no real value for U")
    ]


def test_close_branch_only_labels_a_residual_inside_solve(monkeypatch):
    # solve() calls close_branch only after _split_finite has tried every
    # plan close_branch could finish, so each call returns one Residual
    calls = []
    finish = solver.close_branch

    def recorded(br):
        leaves = finish(br)
        calls.append(leaves)
        return leaves

    monkeypatch.setattr(solver, "close_branch", recorded)
    with open(CORPUS) as fh:
        specs = parse_specfile(fh.read())
    for name in ("tangent2", "quartic", "sextic"):
        with open(spec_path(name)) as fh:
            specs += parse_specfile(fh.read())
    for spec in specs:
        analyze(spec)
        analyze(spec.with_precedence(tuple(reversed(spec.precedence or spec.variables))))
    ring = PolyRing(("U", "V"), QQ)
    U, V = ring.var("U"), ring.var("V")
    cubic = U**3 - 6 * U**2 + 11 * U - 6
    # the finite split finishes the last two, so close_branch never sees them
    for equations in ([U**3 - 4], [U * V - 1], [cubic], [cubic, U * V - 1]):
        solve(tiny_system(ring, equations, ring.one()))
    assert calls
    assert all(len(leaves) == 1 and isinstance(leaves[0], Residual) for leaves in calls)
    assert {leaves[0].reason for leaves in calls} >= {
        "no finishing rule for 8 unknowns",
        "could not enumerate the roots of U^3 - 4",
        "underdetermined pair in U, V",
    }


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
        # a child whose det1 vanishes dies when it is made, so it comes
        # before its sibling, which dies only when it is popped
        (
            (
                "J != 0; J^3 + 4*K^3 = 0",
                "adjoin c, c^3 = 4; J = (-c)*K",
                "(3/2*c)*B != 0",
                "A = (-c)*B",
            ),
            "nondegeneracy-vanished",
        ),
        (
            (
                "J != 0; J^3 + 4*K^3 = 0",
                "adjoin c, c^3 = 4; J = (-c)*K",
                "A = (1/2*c)*B",
            ),
            "inconsistent-constants",
        ),
    ]
    assert res.contradictions[2].detail == (
        "equation 3*B^3 reduces to the nonzero constant 3"
    )


TAN5O2 = "algebra tan5o2 { vars: X, Y, Z, W, V; order: 2; relations: X^2, Y^2, Z^2, W^2, V^2; }"


def test_tan5o2_closes_within_the_default_budget():
    res = analyze(parse_specfile(TAN5O2)[0]).result
    assert res.closed()
    assert len(res.families) == 120
    assert all(len(f.nonzero) == 5 and not f.conditions for f in res.families)
    assert component_count(res) == 3840
    assert overall_det1_image([classify_det1(f) for f in res.families]) == "R\\{0}"


FOUND_CASE = "algebra found { vars: X, Y, Z; order: 3; relations: X*Y*Z, Y*Z^2; }"


@pytest.mark.parametrize("precedence", [None, ("Z", "Y", "X")], ids=["declared", "ZYX"])
def test_component_count_reads_top_families_and_det1_factors(precedence):
    # at the declared precedence the solver splits on A != 0, which does not
    # divide det1 = C*T*M1, and leaves a family of 45 free unknowns next to
    # one of 46 (= dim Der): counting every nonzero unknown of every family
    # would read 16 + 8 = 24 here and 8 at Z > Y > X
    spec = parse_specfile(FOUND_CASE)[0]
    if precedence:
        spec = spec.with_precedence(precedence)
    res = analyze(spec).result
    assert res.closed()
    assert max(len(f.free) for f in res.families) == 46
    assert component_count(res) == 8


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
    # each dead child's det1 vanishes with its binding, so it dies when it
    # is made, before normalization finds its inconsistent constants
    assert [c.reason for c in res.contradictions] == ["nondegeneracy-vanished"] * 3
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
