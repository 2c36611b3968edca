import gc
import itertools
import random
from fractions import Fraction

import pytest

from weilaut.poly import (
    MonomialOrder,
    Polynomial,
    PolyRing,
    PolyError,
    monomials,
    resultant,
    sturm_count,
    univariate_coeffs,
)
from weilaut.scalar import QQ, ExtensionField
from oracles import (
    sylvester_resultant_oracle,
    poly_from_roots,
    primitive_oracle,
    umul,
    count_roots_in,
)


def xy_ring(precedence=None):
    return PolyRing(("X", "Y"), QQ, precedence)


def cbrt4_field():
    return ExtensionField((-4, 0, 0, 1), (1, 2))


def test_leading_term_precedence():
    r = xy_ring()
    X, Y = r.var("X"), r.var("Y")
    p = X**3 - Y**3
    exps, c = p.leading()
    assert exps == (3, 0) and c == 1

    ryx = xy_ring(precedence=("Y", "X"))
    p2 = ryx.var("X") ** 3 - ryx.var("Y") ** 3
    exps, c = p2.leading()
    assert exps == (0, 3) and c == -1

    q = X**2 + X * Y
    exps, c = q.leading()
    assert exps == (2, 0) and c == 1
    exps, c = (ryx.var("X") ** 2 + ryx.var("X") * ryx.var("Y")).leading()
    assert exps == (1, 1) and c == 1
    with pytest.raises(PolyError):
        r.zero().leading()


def rand_poly(rng, ring, maxdeg=3, nterms=4):
    p = ring.zero()
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, maxdeg + 1) for _ in ring.vars)
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        p = p + ring.monomial(exps, c)
    return p


def test_ring_axioms_random():
    rng = random.Random(21)
    r = xy_ring()
    for _ in range(40):
        a, b, c = (rand_poly(rng, r) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == r.zero()


def test_ring_axioms_extension_coeffs():
    F = cbrt4_field()
    rng = random.Random(22)
    r = PolyRing(("A", "B"), F)
    cgen = F.gen()
    for _ in range(15):
        a = rand_poly(rng, r, 2, 3) + r.const(cgen) * rand_poly(rng, r, 2, 2)
        b = rand_poly(rng, r, 2, 3) * r.const(cgen * cgen)
        c = rand_poly(rng, r, 2, 2)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_substitute_matches_evaluate():
    rng = random.Random(23)
    r = xy_ring()
    for _ in range(25):
        p = rand_poly(rng, r)
        vx = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        vy = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        s = p.substitute({"X": r.const(vx), "Y": r.const(vy)})
        assert s.is_constant()
        assert s.constant_value() == p.evaluate({"X": vx, "Y": vy})


def test_substitute_polynomial():
    r = xy_ring()
    X, Y = r.var("X"), r.var("Y")
    p = X**2 + Y
    q = p.substitute({"X": Y + 1})
    assert q == Y**2 + 3 * Y + 1


def test_exact_div_roundtrip():
    rng = random.Random(24)
    r = xy_ring()
    for _ in range(20):
        p = rand_poly(rng, r)
        q = rand_poly(rng, r)
        if not q:
            continue
        assert (p * q).exact_div(q) == p
    X, Y = r.var("X"), r.var("Y")
    with pytest.raises(PolyError):
        (X**2 + Y).exact_div(X + 1)


def substitute_by_sum(p, mapping):
    """Term-by-term substitution: sum of rest * product of binding powers."""
    ring = p.ring
    out = ring.zero()
    for e, c in p.terms.items():
        rest = list(e)
        piece = None
        for v, q in mapping.items():
            i = ring.index[v]
            if e[i]:
                rest[i] = 0
                power = ring.one()
                for _ in range(e[i]):
                    power = power * ring.coerce(q)
                piece = power if piece is None else piece * power
        base = ring.monomial(rest, c)
        out = out + (base if piece is None else base * piece)
    return out


def divide_by_max_term(p, q):
    """Long division taking the order-largest remainder term each step."""
    ring = p.ring
    key = ring.order.key
    dexps, dc = q.leading()
    rem, quo = p, ring.zero()
    while rem:
        exps = max(rem.terms, key=key)
        ne = tuple(a - b for a, b in zip(exps, dexps))
        t = ring.monomial(ne, rem.terms[exps] / dc)
        quo, rem = quo + t, rem - t * q
    return quo


def test_substitute_unused_scalar_and_repeated_powers():
    rng = random.Random(29)
    r = PolyRing(("X", "Y", "Z", "W"), QQ)
    X, Y, Z = r.var("X"), r.var("Y"), r.var("Z")
    for _ in range(30):
        # W never occurs, so its binding is unused
        p = r.zero()
        for _ in range(6):
            exps = (rng.randrange(5), rng.randrange(4), rng.randrange(3), 0)
            p = p + r.monomial(exps, Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        mapping = {
            "W": X * Y + 7,
            "X": Y - 2 * Z + Fraction(rng.randrange(-3, 4)),
            "Y": Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)),
            "Z": X * Z - Y**2 if rng.random() < 0.5 else 0,
        }
        got = p.substitute(mapping)
        assert list(got.terms.items()) == list(substitute_by_sum(p, mapping).terms.items())
        for _ in range(3):
            point = {v: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for v in r.vars}
            images = {
                v: q.evaluate(point) if hasattr(q, "evaluate") else Fraction(q)
                for v, q in mapping.items()
            }
            assert got.evaluate(point) == p.evaluate(dict(point, **images))
    p = X**2 * Z + Y
    assert p.substitute({"W": X}) is p


@pytest.mark.parametrize("precedence", (None, ("Z", "Y", "X")))
def test_exact_div_random_sparse(precedence):
    rng = random.Random(30)
    r = PolyRing(("X", "Y", "Z"), QQ, precedence)
    for _ in range(30):
        p = rand_poly(rng, r, maxdeg=3, nterms=rng.randrange(1, 7))
        q = rand_poly(rng, r, maxdeg=2, nterms=rng.randrange(1, 5))
        if not q:
            continue
        prod = p * q
        got = prod.exact_div(q)
        assert got == p
        if not q.is_constant():
            assert list(got.terms.items()) == list(divide_by_max_term(prod, q).terms.items())


def test_exact_div_extension_field():
    F = cbrt4_field()
    rng = random.Random(31)
    c = F.gen()
    for precedence in (None, ("B", "A")):
        r = PolyRing(("A", "B"), F, precedence)
        for _ in range(15):
            p = rand_poly(rng, r, 2, 3) + r.const(c) * rand_poly(rng, r, 2, 2)
            q = rand_poly(rng, r, 2, 2) * r.const(c * c) + r.var("A") - r.const(c)
            assert (p * q).exact_div(q) == p


def test_exact_div_rejects_a_remainder():
    rng = random.Random(32)
    r = PolyRing(("X", "Y", "Z"), QQ)
    X, Y = r.var("X"), r.var("Y")
    for _ in range(15):
        p = rand_poly(rng, r)
        q = rand_poly(rng, r, 2, 3) + X * Y - Y
        with pytest.raises(PolyError):
            (p * q + X + 1).exact_div(q)
    with pytest.raises(PolyError):
        (X**2 + Y).exact_div(X * Y)


def test_normalizers():
    r = xy_ring()
    X, Y = r.var("X"), r.var("Y")
    p = -4 * X * Y + 6 * Y
    assert p.primitive() == 2 * X * Y - 3 * Y
    assert p.monic() == X * Y - Fraction(3, 2) * Y
    assert p.content_exps() == (0, 1)
    assert p.divide_monomial((0, 1)) == -4 * X + 6


def test_repr_canonical():
    r = PolyRing(("A", "B"), QQ)
    A, B = r.var("A"), r.var("B")
    assert repr(A**2 - 2 * B) == "A^2 - 2*B"
    assert repr(r.zero()) == "0"
    assert repr(3 * A * B - r.one()) == "3*A*B - 1"
    assert repr(-A + Fraction(1, 2) * B) == "-A + 1/2*B"


def test_monomial_order_key_matches_the_reference():
    for n in range(4):
        exps = list(itertools.product(range(3), repeat=n))
        for prec in itertools.permutations(range(n)):
            key = MonomialOrder(prec).key
            for e in exps:
                assert key(e) == (sum(e), tuple(e[i] for i in prec))


def fresh_repr(p):
    return repr(Polynomial(p.ring, dict(p.terms)))


@pytest.mark.parametrize("precedence", [None, ("C", "A", "B")])
@pytest.mark.parametrize("extension", [False, True])
def test_cached_repr_matches_a_fresh_render(precedence, extension):
    F = cbrt4_field() if extension else QQ
    r = PolyRing(("A", "B", "C"), F, precedence)
    c = F.gen() if extension else Fraction(-3, 2)
    rng = random.Random(41)
    for _ in range(15):
        p = rand_poly(rng, r, 2, 4) + r.const(c) * rand_poly(rng, r, 1, 2)
        q = rand_poly(rng, r, 2, 3) + r.var("B")
        s = rand_poly(rng, r, 1, 2)
        operands = (p, q, s)
        before = [repr(x) for x in operands]  # fills the caches first
        results = [
            p + q,
            p - p,
            p * q,
            p * c,
            p.substitute({"A": s, "C": 2}),
            p.substitute({"B": r.zero()}),
            (p * q).exact_div(q),
            q.primitive(),
            (q * 6).primitive(),
            (-q).primitive(),
        ]
        for x in results:
            assert repr(x) == fresh_repr(x)
        assert before == [fresh_repr(x) for x in operands]


@pytest.mark.parametrize("extension", [False, True])
def test_primitive_keeps_a_primitive_polynomial(extension):
    F = cbrt4_field() if extension else QQ
    rng = random.Random(43)
    for precedence in (None, ("B", "A")):
        r = PolyRing(("A", "B"), F, precedence)
        for _ in range(25):
            p = rand_poly(rng, r, 3, 4)
            if not p:
                continue
            q = p.primitive()
            ref = primitive_oracle(p)
            assert q.terms == ref and list(q.terms) == list(ref)
            assert q.ring is r
            assert q.primitive() is q
            assert (p * Fraction(-2, 3)).primitive() == q
        A, B = r.var("A"), r.var("B")
        already = 2 * A**2 * B - 3 * A + B
        assert already.primitive() is already
        assert (-already).primitive() == already
        assert r.zero().primitive().is_zero()
    if extension:
        # an irrational coefficient falls back to monic
        r = PolyRing(("A", "B"), F)
        p = r.var("A") * F.gen() + r.var("B")
        assert p.primitive() == p.monic()
        monic = r.var("A") + r.var("B") * F.gen()
        assert monic.primitive() is monic


def vars_by_definition(p):
    return {v for e in p.terms for v, k in zip(p.ring.vars, e) if k}


def linear_leads_by_definition(p):
    """(var, exps, coeff) for each var, in ring order, that occurs in exactly
    one term and there to the first power."""
    out = []
    for i, v in enumerate(p.ring.vars):
        hits = [(e, c) for e, c in p.terms.items() if e[i]]
        if len(hits) == 1 and hits[0][0][i] == 1:
            e, c = hits[0]
            out.append((v, tuple(0 if j == i else k for j, k in enumerate(e)), c))
    return tuple(out)


def cache_samples(rng, ring):
    A, B, C = (ring.var(v) for v in ring.vars)
    fixed = [ring.zero(), ring.const(5), A, A * B * 3 - C**2, A * B + A * C + B * C, A**2 * B + C]
    return fixed + [rand_poly(rng, ring, 2, 4) for _ in range(30)]


@pytest.mark.parametrize("precedence", [None, ("C", "A", "B")])
def test_vars_used_and_linear_leads_match_the_definitions(precedence):
    r = PolyRing(("A", "B", "C"), QQ, precedence)
    for p in cache_samples(random.Random(47), r):
        used = p.vars_used()
        assert isinstance(used, frozenset)
        assert used == vars_by_definition(p)
        assert p.vars_used() is used
        leads = p.linear_leads()
        assert leads == linear_leads_by_definition(p)
        assert p.linear_leads() is leads
    A, B, C = (r.var(v) for v in "ABC")
    # C has coefficient 2*A + B (two terms), A has degree 2: only B leads
    assert (2 * A * C + B * C + A**2).linear_leads() == (("B", (0, 0, 1), 1),)
    assert (A * B * 3 - C**2).linear_leads() == (("A", (0, 1, 0), 3), ("B", (1, 0, 0), 3))


def test_substitute_keeps_the_cached_facts_of_untouched_operands():
    r = PolyRing(("A", "B", "C"), QQ)
    A, B, C = (r.var(v) for v in "ABC")
    p = A * B - 2 * A + B
    used = p.vars_used()
    assert p.substitute({"C": A + 1}) is p
    assert p.substitute({"C": A + 1}).vars_used() is used
    q = p.substitute({"C": A, "B": C - 1})
    assert q.vars_used() == {"A", "C"}
    assert q == A * C - 3 * A + C - 1


@pytest.mark.parametrize("precedence", [None, ("C", "A", "B")])
def test_primitive_is_computed_once_and_holds_no_cycle(precedence):
    r = PolyRing(("A", "B", "C"), QQ, precedence)
    for p in cache_samples(random.Random(53), r):
        if not p:
            assert p.primitive() is p
            continue
        q = p.primitive()
        assert q.terms == primitive_oracle(p)
        assert p.primitive() is q
        assert q.primitive() is q
        assert (q * 3).primitive() == q
        for x in (p, q):
            assert all(y is not x for y in gc.get_referents(x))
    A, B = r.var("A"), r.var("B")
    already = A * B - 2 * B
    assert already.primitive() is already
    assert all(y is not already for y in gc.get_referents(already))


def test_primitive_of_a_monic_fallback_with_rational_coefficients():
    # c*A + (c/2)*B with c irrational falls back to monic: A + 1/2*B, whose
    # own primitive form is 2*A + B, so the monic result is not marked
    # primitive
    F = cbrt4_field()
    r = PolyRing(("A", "B"), F)
    c = F.gen()
    p = r.var("A") * c + r.var("B") * (c * Fraction(1, 2))
    m = p.primitive()
    assert m == r.var("A") + r.var("B") * Fraction(1, 2)
    assert m.primitive() == r.var("A") * 2 + r.var("B")
    assert m.primitive().primitive() is m.primitive()


def test_resultant_printed_cases():
    r = PolyRing(("x",), QQ)
    x = r.var("x")
    res = resultant(x**2 - 1, x - 2, "x")
    assert res.is_constant() and res.constant_value() == 3
    assert sylvester_resultant_oracle([-1, 0, 1], [-2, 1]) == 3

    rab = PolyRing(("x", "a", "b"), QQ)
    x2, a, b = rab.var("x"), rab.var("a"), rab.var("b")
    assert resultant(x2 - a, x2 - b, "x") == a - b

    res0 = resultant(x**2 + 1, x**2 + 1, "x")
    assert res0.is_zero()

    with pytest.raises(PolyError):
        resultant(x + 1, r.one() + r.one(), "x")


def test_resultant_matches_oracle_random():
    rng = random.Random(25)
    r = PolyRing(("x",), QQ)
    for _ in range(15):
        pc = [Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(2, 5))]
        qc = [Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(2, 5))]
        pc[-1] = pc[-1] or Fraction(1)
        qc[-1] = qc[-1] or Fraction(1)
        p = sum((r.monomial((i,), c) for i, c in enumerate(pc)), r.zero())
        q = sum((r.monomial((i,), c) for i, c in enumerate(qc)), r.zero())
        got = resultant(p, q, "x")
        want = sylvester_resultant_oracle(pc, qc)
        assert got.is_constant() and got.constant_value() == want


def test_resultant_common_root_vanishes():
    rng = random.Random(26)
    r = PolyRing(("x",), QQ)

    def lift(coeffs):
        return sum((r.monomial((i,), c) for i, c in enumerate(coeffs)), r.zero())

    for _ in range(12):
        shared = rng.randrange(-3, 4)
        p = lift(umul(poly_from_roots([shared]), poly_from_roots([rng.randrange(-3, 4)])))
        q = lift(umul(poly_from_roots([shared]), poly_from_roots([rng.randrange(-3, 4), rng.randrange(-3, 4)])))
        assert resultant(p, q, "x").is_zero()
        p2 = lift(poly_from_roots([1, 2]))
        q2 = lift(poly_from_roots([3, 5]))
        assert not resultant(p2, q2, "x").is_zero()


def test_sturm_printed_cases():
    r = PolyRing(("x",), QQ)
    x = r.var("x")
    assert sturm_count(x**2 - 2, (0, 2)) == 1
    assert sturm_count(x**2 + 1, (None, None)) == 0
    # odd degree and strictly increasing, so exactly one real root
    p = x**3 - 4
    dcoeffs = univariate_coeffs(p.derivative("x"))
    assert all(c >= 0 for c in dcoeffs)
    assert sturm_count(p, (None, None)) == 1
    with pytest.raises(PolyError):
        sturm_count(r.zero(), (None, None))


def test_sturm_constructed_roots():
    rng = random.Random(27)
    r = PolyRing(("x",), QQ)
    for _ in range(20):
        roots = [Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 2))) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:
            roots.append(roots[0])  # repeated root exercises the square-free step
        coeffs = poly_from_roots(roots)
        if rng.random() < 0.4:
            coeffs = umul(coeffs, [Fraction(1), Fraction(0), Fraction(1)])  # times x^2+1
        p = sum((r.monomial((i,), c) for i, c in enumerate(coeffs)), r.zero())
        assert sturm_count(p, (None, None)) == count_roots_in(roots, None, None)
        lo, hi = sorted(Fraction(rng.randrange(-7, 8)) for _ in range(2))
        if lo == hi:
            hi = lo + 1
        assert sturm_count(p, (lo, hi)) == count_roots_in(roots, lo, hi)


def test_sturm_extension_coefficients():
    F = cbrt4_field()
    r = PolyRing(("x",), F)
    x = r.var("x")
    c = r.const(F.gen())
    # x^3 - 4 = (x - c)(x^2 + cx + c^2); the quadratic has no real roots
    quad = x**2 + c * x + c * c
    assert sturm_count(quad, (None, None)) == 0
    assert sturm_count(x - c, (None, None)) == 1
    assert sturm_count(x - c, (Fraction(2), None)) == 0


def test_monomials_match_a_product_filter():
    for nvars in (1, 2, 3):
        for lo, hi in ((0, 0), (0, 3), (2, 4), (3, 3), (1, 6), (4, 2)):
            want = [
                e for e in itertools.product(range(hi + 1), repeat=nvars)
                if lo <= sum(e) <= hi
            ]
            assert monomials(nvars, lo, hi) == want


def test_coeffs_in_and_derivative():
    r = xy_ring()
    X, Y = r.var("X"), r.var("Y")
    p = X**2 * Y + 3 * X * Y**2 - Y + 5
    byx = p.coeffs_in("X")
    assert byx[2] == Y
    assert byx[1] == 3 * Y**2
    assert byx[0] == -Y + 5
    assert p.derivative("X") == 2 * X * Y + 3 * Y**2
    assert p.degree_in("Y") == 2
    with pytest.raises(PolyError):
        univariate_coeffs(p)
    assert univariate_coeffs(Y**2 - 2) == [Fraction(-2), Fraction(0), Fraction(1)]
