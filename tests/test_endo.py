import os
import random
from fractions import Fraction

import pytest

from weilaut.parsing import parse_specfile
from weilaut.weil import WeilError, build_algebra, integral_copy
from weilaut.endo import (
    EndoError,
    constraint_system,
    extend_to_matrix,
    generic_endo,
    linear_matrix,
    numeric_instantiate,
    resolve_bindings,
    substitute,
    unknown_names,
)
from weilaut.linalg import bareiss_determinant
from weilaut.scalar import QQ, ExtensionField, FieldError
from weilaut.poly import PolyError, PolyRing
from weilaut.solver import solve
from weilaut.specdata import spec_path

from oracles import degree_one, identity_point, matmul, numeric_product_check, principal
from test_weil import both_precedences, corpus_and_scaled, random_spec_texts

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus.alg")


def load(name):
    with open(spec_path(name)) as fh:
        specs = parse_specfile(fh.read())
    return build_algebra(specs[0])


@pytest.fixture(scope="module")
def tangent2():
    return load("tangent2.alg")


@pytest.fixture(scope="module")
def quartic():
    return load("quartic.alg")


@pytest.fixture(scope="module")
def sextic():
    return load("sextic.alg")


def test_unknown_names_skip_o_and_taken():
    names = unknown_names(18, taken={"X", "Y"})
    assert names[:9] == ["A", "B", "C", "D", "E", "F", "G", "H", "I"]
    assert names[9:] == ["J", "K", "L", "M", "N", "P", "Q", "R", "S"]
    long = unknown_names(28, taken={"X", "Y"})
    assert long[22] == "Z"
    assert long[23:] == ["A1", "B1", "C1", "D1", "E1"]


def test_generic_endo_tangent2(tangent2):
    e = generic_endo(tangent2)
    assert e.unknowns == ("A", "B", "C", "D", "E", "F")
    # phi(X) = A X + B Y + C XY in the 1, X, Y, XY coordinates
    assert [repr(c) for c in e.images["X"]] == ["0", "A", "B", "C"]
    assert [repr(c) for c in e.images["Y"]] == ["0", "D", "E", "F"]


def test_constraints_tangent2(tangent2):
    e = generic_endo(tangent2)
    sys_ = constraint_system(e)
    normalized = sorted(repr(p.primitive()) for p in sys_.equations)
    assert normalized == ["A*B", "D*E"]
    assert repr(sys_.nondegeneracy[0]) == "A*E - B*D"
    assert sys_.provenance == [("X^2", "X*Y"), ("Y^2", "X*Y")]


def test_matrix_tangent2(tangent2):
    e = generic_endo(tangent2)
    m = extend_to_matrix(e)
    assert m.labels == ["X", "Y", "X*Y"]
    assert [repr(p) for p in m.entries[0]] == ["A", "B", "C"]
    assert [repr(p) for p in m.entries[1]] == ["D", "E", "F"]
    # the XY row of the generic endomorphism has a single nonzero entry
    assert [repr(p) for p in m.entries[2]] == ["0", "0", "A*E + B*D"]


def test_determinants_tangent2_families(tangent2):
    e = generic_endo(tangent2)
    m = extend_to_matrix(e)
    m1 = linear_matrix(e)
    first = substitute(m, {"B": 0, "D": 0})
    assert repr(first.det()) == "A^2*E^2"
    assert repr(substitute(m1, {"B": 0, "D": 0}).det()) == "A*E"
    second = substitute(m, {"A": 0, "E": 0})
    assert repr(second.det()) == "-B^2*D^2"
    assert repr(substitute(m1, {"A": 0, "E": 0}).det()) == "-B*D"


def test_printed_product_criterion_is_not_the_endo_criterion(tangent2):
    # X -> X, Y -> X satisfies AD = 0 and BE = 0 yet also kills both
    # relations, so it is a homomorphism; the product conditions only cut
    # out the same locus once combined with invertibility.
    e = generic_endo(tangent2)
    vals = {"A": 1, "B": 0, "C": 0, "D": 1, "E": 0, "F": 0}
    n = numeric_instantiate(e, vals)
    assert n.is_homomorphism
    assert not n.is_automorphism
    # whereas A = B = D = E = 1 satisfies neither formulation
    bad = numeric_instantiate(e, {"A": 1, "B": 1, "C": 0, "D": 0, "E": 1, "F": 0})
    assert not bad.is_homomorphism
    assert bad.failing_pairs == [("X", "X")]


def test_numeric_instantiate_automorphism(tangent2):
    e = generic_endo(tangent2)
    n = numeric_instantiate(e, {"A": 1, "B": 0, "C": 2, "D": 0, "E": 1, "F": 3})
    assert n.is_homomorphism and n.is_automorphism
    div = lambda x, y: x / y
    assert bareiss_determinant(principal(n.matrix, degree_one(tangent2)), div) == 1
    assert bareiss_determinant(principal(n.matrix, range(1, tangent2.dim)), div) == 1
    ident = numeric_instantiate(e, identity_point(e))
    assert ident.matrix == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert ident.is_automorphism


def test_generic_endo_quartic_names(quartic):
    e = generic_endo(quartic)
    assert len(e.unknowns) == 18
    assert e.unknowns[:9] == ("A", "B", "C", "D", "E", "F", "G", "H", "I")
    assert e.unknowns[9:] == ("J", "K", "L", "M", "N", "P", "Q", "R", "S")
    assert [repr(c) for c in e.images["X"][:4]] == ["0", "A", "B", "C"]
    assert repr(e.images["Y"][1]) == "J"


def test_constraints_quartic_frozen(quartic):
    e = generic_endo(quartic)
    sys_ = constraint_system(e)
    assert len(sys_.equations) == 7
    by_prov = {prov: repr(p.primitive()) for prov, p in zip(sys_.provenance, sys_.equations)}
    assert by_prov[("X^3*Y", "X^4")] == "A^3*J + 3*A*B^2*K + B^3*J"
    assert by_prov[("X^2*Y^2", "X^4")] == "A^2*J^2 + 2*A*B*K^2 + 2*B^2*J*K"
    assert by_prov[("Y^4", "X^4")] == "J^4 + 4*J*K^3"
    diff = "X^3 - Y^3"
    assert by_prov[(diff, "X^3")] == "A^3 + B^3 - J^3 - K^3"
    assert by_prov[(diff, "X^2*Y")] == "A^2*B - J^2*K"
    assert by_prov[(diff, "X*Y^2")] == "A*B^2 - J*K^2"
    assert (
        by_prov[(diff, "X^4")]
        == "A^2*C + 2*A*B*E + B^2*D - J^2*L - 2*J*K*N - K^2*M"
    )
    assert repr(sys_.nondegeneracy[0]) == "A*K - B*J"


def scalar_bindings(endo, value):
    """Bind each variable to value * itself, every other unknown to zero."""
    alg = endo.algebra
    vals = {u: Fraction(0) for u in endo.unknowns}
    for name, (v, idx) in endo.unknown_slots.items():
        var_index = alg.basis_index[tuple(1 if w == v else 0 for w in alg.ring.vars)]
        if idx == var_index:
            vals[name] = Fraction(value)
    return vals


def test_constraints_match_numeric_oracle(tangent2, quartic, sextic):
    rng = random.Random(51)
    for alg in (tangent2, quartic, sextic):
        e = generic_endo(alg)
        sys_ = constraint_system(e)
        hom_seen = 0
        for trial in range(40):
            if trial == 0:
                vals = identity_point(e)
            elif trial % 3 == 1:
                vals = scalar_bindings(e, rng.randint(1, 3))
            else:
                vals = {u: Fraction(rng.randint(-2, 2)) for u in e.unknowns}
            vanish = all(p.evaluate(vals) == 0 for p in sys_.equations)
            n = numeric_instantiate(e, vals)
            assert vanish == n.is_homomorphism
            if n.is_homomorphism:
                hom_seen += 1
                det1 = bareiss_determinant(principal(n.matrix, degree_one(alg)), lambda x, y: x / y)
                assert n.is_automorphism == (det1 != 0)
        assert hom_seen > 0


def test_quartic_matrix_rows(quartic):
    e = generic_endo(quartic)
    m = extend_to_matrix(e)
    assert m.labels == ["X", "Y", "X^2", "X*Y", "Y^2", "X^3", "X^2*Y", "X*Y^2", "X^4"]
    fam = {"B": 0, "J": 0, "K": e.ring.var("A"), "M": e.ring.var("C")}
    mf = substitute(m, fam)
    diag = [repr(p) for p in mf.diagonal()]
    assert diag == ["A", "A", "A^2", "A^2", "A^2", "A^3", "A^3", "A^3", "A^4"]
    assert repr(mf.det()) == "A^21"
    assert repr(substitute(linear_matrix(e), fam).det()) == "A^2"
    # spot entries away from the diagonal
    at = m.labels.index
    assert repr(mf.entries[at("X")][at("X^3")]) == "F"
    assert repr(m.entries[at("X^2")][at("X^4")]) == "2*A*F + 2*B*H + C^2 + 2*D*E"
    assert repr(mf.entries[at("X^2")][at("X^4")]) == "2*A*F + C^2 + 2*D*E"
    assert repr(mf.entries[at("X*Y")][at("X^4")]) == "A*H + A*P + C*E + C*L + D*N"


def test_matrix_agrees_with_numeric(quartic):
    rng = random.Random(52)
    e = generic_endo(quartic)
    m = extend_to_matrix(e)
    for _ in range(5):
        vals = {u: Fraction(rng.randint(-3, 3)) for u in e.unknowns}
        n = numeric_instantiate(e, vals)
        sym = [[p.evaluate(vals) for p in row] for row in m.entries]
        assert sym == principal(n.matrix, range(1, quartic.dim))


def test_compose_and_det_multiplicativity(quartic):
    rng = random.Random(53)
    e = generic_endo(quartic)
    for _ in range(6):
        a = rng.choice([1, 2, -1, Fraction(1, 2)])
        vals = {u: Fraction(0) for u in e.unknowns}
        vals.update({"A": Fraction(a), "K": Fraction(a)})
        vals.update({"C": Fraction(rng.randint(-2, 2))})
        vals["M"] = vals["C"]
        n1 = numeric_instantiate(e, vals)
        assert n1.is_automorphism
        w = {u: Fraction(0) for u in e.unknowns}
        w.update({"A": Fraction(2), "K": Fraction(2), "C": Fraction(1), "M": Fraction(1)})
        n2 = numeric_instantiate(e, w)
        comp = matmul(n1.matrix, n2.matrix)
        div = lambda x, y: x / y
        deg1, nil = degree_one(quartic), range(1, quartic.dim)
        d1 = bareiss_determinant(principal(comp, deg1), div)
        assert d1 == (
            bareiss_determinant(principal(n1.matrix, deg1), div)
            * bareiss_determinant(principal(n2.matrix, deg1), div)
        )
        dfull = bareiss_determinant(principal(comp, nil), div)
        assert dfull == (
            bareiss_determinant(principal(n1.matrix, nil), div)
            * bareiss_determinant(principal(n2.matrix, nil), div)
        )
    ident = numeric_instantiate(e, identity_point(e))
    n = numeric_instantiate(e, vals)
    assert matmul(n.matrix, ident.matrix) == n.matrix
    assert matmul(ident.matrix, n.matrix) == n.matrix


def test_sextic_endo_basics(sextic):
    e = generic_endo(sextic)
    assert len(e.unknowns) == 28
    sys_ = constraint_system(e)
    assert sys_.equations
    ident = numeric_instantiate(e, identity_point(e))
    assert ident.is_automorphism
    assert all(p.evaluate(identity_point(e)) == 0 for p in sys_.equations)


def test_substitute_and_bindings():
    ring = PolyRing(("A", "B", "C"), QQ)
    closed = resolve_bindings(ring, {"A": ring.var("B") + 1, "B": ring.var("C") * 2})
    assert repr(closed["A"]) == "2*C + 1"
    with pytest.raises(EndoError):
        resolve_bindings(ring, {"A": ring.var("B"), "B": ring.var("A")})
    with pytest.raises(EndoError):
        resolve_bindings(ring, {"Z": 1})


def test_lift_to_field(quartic):
    e = generic_endo(quartic)
    sys_ = constraint_system(e)
    field = ExtensionField((-4, 0, 0, 1), (1, 2))
    ring = PolyRing(e.ring.vars, field)
    lifted = ring.lift(sys_.equations[0])
    assert lifted.ring is ring
    assert repr(lifted) == repr(sys_.equations[0])
    # a rational coefficient keeps its one form in every field: the
    # quartic's equation is integral, so every coefficient stays an int,
    # and a half stays a Fraction
    assert lifted.terms == sys_.equations[0].terms
    assert all(type(c) is int for c in lifted.terms.values())
    half = ring.lift(sys_.equations[0] * Fraction(1, 2))
    assert all(type(c) is Fraction and c.denominator == 2 for c in half.terms.values())
    with pytest.raises(PolyError):
        ring.lift(PolyRing(("A", "B"), QQ).var("A"))
    sqrt2 = ExtensionField((-2, 0, 1), (1, 2))
    other = PolyRing(e.ring.vars, sqrt2)
    with pytest.raises(FieldError):
        ring.lift(other.var("A") * sqrt2.gen())


def test_one_variable_algebra():
    from weilaut.weil import AlgebraSpec

    spec = AlgebraSpec("line", ("T",), 1, [{(2,): Fraction(1)}])
    alg = build_algebra(spec)
    e = generic_endo(alg)
    assert e.unknowns == ("A",)
    sys_ = constraint_system(e)
    assert sys_.equations == []
    assert repr(sys_.nondegeneracy[0]) == "A"


def test_monomial_images_symbolic_equal_numeric(quartic):
    # the symbolic rows, evaluated at a point, are the numeric rows there
    rng = random.Random(54)
    e = generic_endo(quartic)
    vals = {u: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for u in e.unknowns}
    n = numeric_instantiate(e, vals)
    sym = [[p.evaluate(vals) for p in e.image_of_monomial(b)] for b in quartic.basis]
    assert sym == n.matrix
    assert sym[0] == [1] + [0] * (quartic.dim - 1)


def linear_point(endo, images):
    """Values making phi(v) = sum of c * w over images[v] = {w: c}."""
    alg = endo.algebra
    point = {}
    for name, (v, k) in endo.unknown_slots.items():
        exps = alg.basis[k]
        w = alg.ring.vars[exps.index(1)] if sum(exps) == 1 else None
        point[name] = Fraction(images[v].get(w, 0))
    return point


def assert_matches_the_oracle(endo, point):
    n = numeric_instantiate(endo, point)
    matrix, failing, hom, aut = numeric_product_check(endo, point)
    assert n.matrix == matrix
    assert all(type(x) is Fraction for row in n.matrix for x in row)
    assert n.failing_pairs == failing
    assert n.is_homomorphism == hom
    assert n.is_automorphism == aut
    return n


def test_numeric_instantiate_with_fractional_structure_constants():
    # X^2 = 2/3 Y^2, so the integral copy of the structure table is scaled
    # by Q = 3 and every product carries that factor
    alg = build_algebra(
        parse_specfile("algebra q { vars: X, Y; order: 3; relations: 3*X^2 - 2*Y^2; }")[0]
    )
    assert integral_copy(alg)[0] == 3
    e = generic_endo(alg)
    two_thirds = Fraction(2, 3)
    cases = [
        (identity_point(e), True, True),
        (linear_point(e, {"X": {"X": two_thirds}, "Y": {"Y": two_thirds}}), True, True),
        (linear_point(e, {"X": {"X": -1}, "Y": {"Y": 1}}), True, True),
        (linear_point(e, {"X": {}, "Y": {}}), True, False),
    ]
    rng = random.Random(37)
    for _ in range(6):
        point = {u: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for u in e.unknowns}
        cases.append((point, False, False))
    for point, hom, aut in cases:
        n = assert_matches_the_oracle(e, point)
        assert (n.is_homomorphism, n.is_automorphism) == (hom, aut)


def family_points(endo, rng, count):
    """Points of the solver's rational families, free values with denominators
    up to 3; none when no family is rational."""
    families = [f for f in solve(constraint_system(endo)).families if f.ring.domain is QQ]
    points = []
    while families and len(points) < count:
        fam = families[len(points) % len(families)]
        vals = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in fam.free}
        if any(vals[v] == 0 for v in fam.nonzero) or any(c.evaluate(vals) == 0 for c in fam.conditions):
            continue
        point = dict(vals)
        point.update((name, p.evaluate(vals)) for name, p in fam.bindings.items())
        points.append(point)
    return points


def widened_algebras(name):
    """The algebras of corpus_and_scaled() or of a seeded batch of
    random_spec_texts at both precedences, skipping those build_algebra
    rejects."""
    if name == "corpus_and_scaled":
        specs = corpus_and_scaled()
    else:
        specs = both_precedences([s for text in random_spec_texts(22, 5) for s in parse_specfile(text)])
    for spec in specs:
        try:
            yield build_algebra(spec)
        except WeilError:
            continue


@pytest.mark.parametrize(
    "name", ["tangent2", "quartic", "sextic", "tan4", "corpus_and_scaled", "random_spec_texts"]
)
def test_numeric_instantiate_matches_the_oracle(name):
    if name in ("corpus_and_scaled", "random_spec_texts"):
        # generic points with int values keep the oracle's Fraction
        # arithmetic cheap; the family point has fractional values
        for alg in widened_algebras(name):
            e = generic_endo(alg)
            rng = random.Random(41 + alg.dim)
            points = [identity_point(e), linear_point(e, {v: {} for v in alg.ring.vars})]
            points += [{u: rng.randint(-4, 4) for u in e.unknowns} for _ in range(2)]
            points += family_points(e, rng, 1)
            outcomes = [assert_matches_the_oracle(e, point) for point in points]
            assert outcomes[0].is_automorphism
            assert outcomes[1].is_homomorphism and not outcomes[1].is_automorphism
            assert all(n.is_automorphism for n in outcomes[4:])
        return
    if name == "tan4":
        with open(CORPUS) as fh:
            alg = build_algebra(next(s for s in parse_specfile(fh.read()) if s.name == name))
    else:
        alg = load(name + ".alg")
    e = generic_endo(alg)
    double = {v: {v: 2} for v in alg.ring.vars}
    swap = dict(zip(alg.ring.vars, ({w: 1} for w in reversed(alg.ring.vars))))
    points = [
        identity_point(e),
        linear_point(e, {v: {} for v in alg.ring.vars}),
        linear_point(e, double),
        linear_point(e, swap),
    ]
    rng = random.Random(41 + alg.dim)
    for _ in range(2):
        points.append({u: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for u in e.unknowns})
    # family points with fractional values: on the sextic, X^3 = -Y^4 makes
    # pairs whose product has terms of lower degree than the pair; tan4's
    # relations are monomials, so its linear points already cover it
    family = family_points(e, rng, 2) if name != "tan4" else []
    outcomes = [assert_matches_the_oracle(e, point) for point in points + family]
    assert outcomes[0].is_automorphism
    assert outcomes[1].is_homomorphism and not outcomes[1].is_automorphism
    assert any(not n.is_homomorphism for n in outcomes[4:6])
    assert all(n.is_automorphism for n in outcomes[6:])


def test_numeric_instantiate_takes_rational_values_only(tangent2):
    e = generic_endo(tangent2)
    point = identity_point(e)
    field = ExtensionField((-2, 0, 1), (1, 2))
    for bad in (0.5, field.element((0, 1)), "1"):
        with pytest.raises(EndoError, match="value of B is not rational"):
            numeric_instantiate(e, dict(point, B=bad))
    assert numeric_instantiate(e, dict(point, B=0)).is_automorphism
