import random
from fractions import Fraction

import pytest

from weilaut.parsing import parse_specfile
from weilaut.poly import PolyRing, Polynomial, PolyError, monomials
from weilaut.scalar import QQ
from weilaut.quotient import IdealPresentation, buchberger, normal_form, standard_monomials, nf_table
from weilaut.specdata import spec_path
from oracles import dense_quotient_oracle
from test_weil import both_precedences, corpus_and_scaled, random_spec_texts


def ring_yx():
    return PolyRing(("X", "Y"), QQ, precedence=("Y", "X"))


def tangent2_gb():
    r = ring_yx()
    X, Y = r.var("X"), r.var("Y")
    ideal = IdealPresentation(r, [X**2, Y**2], 2)
    return r, buchberger(ideal)


def quartic_gb():
    r = ring_yx()
    X, Y = r.var("X"), r.var("Y")
    gens = [X**3 * Y, X**2 * Y**2, Y**4, X**3 - Y**3]
    return r, buchberger(IdealPresentation(r, gens, 4))


def sextic_gb():
    r = PolyRing(("X", "Y"), QQ)
    X, Y = r.var("X"), r.var("Y")
    gens = [X**3 + Y**4, X**4 + Y**5]
    return r, buchberger(IdealPresentation(r, gens, 6))


def presentation_gbs():
    """(generators, basis) of the shipped three, the corpus and 100 seeded
    random presentations in two and three variables, at both precedences."""
    specs = []
    for name in ("tangent2", "quartic", "sextic"):
        with open(spec_path(name)) as fh:
            specs += parse_specfile(fh.read())
    specs += [s for text in random_spec_texts(9, 100) for s in parse_specfile(text)]
    return [
        (spec.relations, buchberger(IdealPresentation(spec.ring, spec.relations, spec.order)))
        for spec in corpus_and_scaled() + both_precedences(specs)
    ]


def dense_from_poly(p):
    return {(e[p.ring.index["X"]], e[p.ring.index["Y"]]): c for e, c in p.terms.items()}


def poly_from_dense(ring, d):
    ix, iy = ring.index["X"], ring.index["Y"]
    terms = {}
    for (i, j), c in d.items():
        e = [0, 0]
        e[ix], e[iy] = i, j
        terms[tuple(e)] = c
    return ring.poly(terms)


def test_tangent2_standard_monomials():
    r, gb = tangent2_gb()
    sm = standard_monomials(gb)
    assert [r.monomial_str(e) for e in sm] == ["1", "X", "Y", "X*Y"]


def test_quartic_standard_monomials():
    r, gb = quartic_gb()
    sm = standard_monomials(gb)
    names = [r.monomial_str(e) for e in sm]
    assert names == ["1", "X", "Y", "X^2", "X*Y", "Y^2", "X^3", "X^2*Y", "X*Y^2", "X^4"]


def test_empty_ideal_first_order():
    r = ring_yx()
    gb = buchberger(IdealPresentation(r, [], 1))
    sm = standard_monomials(gb)
    assert [r.monomial_str(e) for e in sm] == ["1", "X", "Y"]


def test_sextic_dimension():
    r, gb = sextic_gb()
    sm = standard_monomials(gb)
    assert len(sm) == 15
    gens = [{(3, 0): Fraction(1), (0, 4): Fraction(1)}, {(4, 0): Fraction(1), (0, 5): Fraction(1)}]
    oracle_sm, _ = dense_quotient_oracle(gens, 6, precedence=("X", "Y"))
    assert oracle_sm == [(e[0], e[1]) for e in sm]


def test_normal_form_printed_cases():
    r, gb = tangent2_gb()
    X, Y = r.var("X"), r.var("Y")
    assert normal_form(X**2 * Y, gb).is_zero()
    assert normal_form(X * Y, gb) == X * Y

    r2, gb2 = quartic_gb()
    X2, Y2 = r2.var("X"), r2.var("Y")
    got = normal_form(X2 * Y2**3, gb2)
    assert got == X2**4
    # independent dense-elimination oracle agrees
    gens = [
        {(3, 1): Fraction(1)},
        {(2, 2): Fraction(1)},
        {(0, 4): Fraction(1)},
        {(3, 0): Fraction(1), (0, 3): Fraction(-1)},
    ]
    _, nf = dense_quotient_oracle(gens, 4, precedence=("Y", "X"))
    assert nf({(1, 3): Fraction(1)}) == {(4, 0): Fraction(1)}


def test_quartic_relation_consequences():
    r, gb = quartic_gb()
    X, Y = r.var("X"), r.var("Y")
    assert normal_form(Y**3, gb) == X**3
    assert normal_form(X**3 * Y, gb).is_zero()
    assert normal_form(X**5, gb).is_zero()
    assert normal_form(X**4 * Y, gb).is_zero()


def test_spolynomials_reduce_to_zero():
    # every S-polynomial of the basis and every generator of its ideal
    # reduces to zero by division by the basis
    gbs = [gb for _, gb in (tangent2_gb(), quartic_gb(), sextic_gb())]
    for gens, gb in presentation_gbs():
        assert all(normal_form(g, gb).is_zero() for g in gens)
        gbs.append(gb)
    for gb in gbs:
        els = gb.elements
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                li = els[i].leading()[0]
                lj = els[j].leading()[0]
                lcm = tuple(max(a, b) for a, b in zip(li, lj))
                si = tuple(a - b for a, b in zip(lcm, li))
                sj = tuple(a - b for a, b in zip(lcm, lj))
                ring = gb.ring
                s = Polynomial(ring, {si: Fraction(1)}) * els[i] - Polynomial(ring, {sj: Fraction(1)}) * els[j]
                assert normal_form(s, gb).is_zero()


def rand_dense(rng, maxdeg):
    d = {}
    for _ in range(rng.randrange(1, 7)):
        i, j = rng.randrange(0, maxdeg + 1), rng.randrange(0, maxdeg + 1)
        d[(i, j)] = d.get((i, j), Fraction(0)) + Fraction(rng.randrange(-5, 6))
    return {k: c for k, c in d.items() if c}


def test_oracle_equivalence_random():
    cases = [
        (tangent2_gb(), [{(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}], 2, ("Y", "X")),
        (
            quartic_gb(),
            [
                {(3, 1): Fraction(1)},
                {(2, 2): Fraction(1)},
                {(0, 4): Fraction(1)},
                {(3, 0): Fraction(1), (0, 3): Fraction(-1)},
            ],
            4,
            ("Y", "X"),
        ),
        (
            sextic_gb(),
            [{(3, 0): Fraction(1), (0, 4): Fraction(1)}, {(4, 0): Fraction(1), (0, 5): Fraction(1)}],
            6,
            ("X", "Y"),
        ),
    ]
    rng = random.Random(31)
    for (ring, gb), gens, r, prec in cases:
        oracle_sm, nf = dense_quotient_oracle(gens, r, precedence=prec)
        assert oracle_sm == [(e[ring.index["X"]], e[ring.index["Y"]]) for e in standard_monomials(gb)]
        for _ in range(60):
            d = rand_dense(rng, r + 1)
            p = poly_from_dense(ring, d)
            got = dense_from_poly(normal_form(p, gb))
            assert got == nf(d)


def test_normal_form_is_linear_idempotent_multiplicative():
    rng = random.Random(32)
    ring, gb = quartic_gb()
    for _ in range(25):
        p = poly_from_dense(ring, rand_dense(rng, 5))
        q = poly_from_dense(ring, rand_dense(rng, 5))
        nfp = normal_form(p, gb)
        nfq = normal_form(q, gb)
        assert normal_form(nfp, gb) == nfp
        assert normal_form(p + q, gb) == nfp + nfq
        assert normal_form(p * q, gb) == normal_form(nfp * nfq, gb)


def test_nf_table_matches_normal_form():
    ring, gb = tangent2_gb()
    table = nf_table(gb)
    for e, v in table.items():
        assert v == normal_form(ring.monomial(e), gb)
    assert table[(1, 1)] == ring.var("X") * ring.var("Y")
    assert table[(2, 0)].is_zero()
    assert all(sum(e) <= 4 for e in table)
    for _, gb in presentation_gbs():
        ring, r = gb.ring, gb.truncation_order
        table = nf_table(gb)
        assert sorted(table) == monomials(len(ring.vars), 0, r)
        for e, v in table.items():
            assert v == normal_form(ring.monomial(e), gb)


def divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def test_standard_monomials_are_those_no_lead_divides():
    # the leading-term definition is the reference for reading the standard
    # monomials off the normal-form table
    for _, gb in presentation_gbs():
        ring, r = gb.ring, gb.truncation_order
        leads = [g.leading()[0] for g in gb.elements]
        want = [e for e in monomials(len(ring.vars), 0, r) if not any(divides(le, e) for le in leads)]
        assert standard_monomials(gb) == sorted(want, key=ring.order.key)
        # the basis is minimal: no leading monomial divides or equals another,
        # although minimalization tests each lead only against later ones
        assert not any(divides(a, b) for i, a in enumerate(leads) for j, b in enumerate(leads) if i != j)


def test_division_refuses_a_basis_under_another_order():
    # X*Z + X*Y leads with X*Z under Z > Y > X; dividing a polynomial of the
    # default order by it would put X*Y in the remainder and then overwrite it
    zyx = PolyRing(("X", "Y", "Z"), QQ, precedence=("Z", "Y", "X"))
    gb = buchberger(IdealPresentation(zyx, [zyx.poly({(1, 0, 1): 1, (1, 1, 0): 1})], 3))
    p = {(1, 0, 1): -1, (1, 1, 0): 2, (0, 0, 0): 2}
    assert normal_form(zyx.poly(p), gb) == zyx.poly({(1, 1, 0): 3, (0, 0, 0): 2})
    xyz = PolyRing(("X", "Y", "Z"), QQ)
    with pytest.raises(PolyError):
        normal_form(xyz.poly(p), gb)
    with pytest.raises(PolyError):
        xyz.poly(p).divide(gb.elements)
    # a ring with the same variables and precedence is accepted
    same = PolyRing(("X", "Y", "Z"), QQ, precedence=("Z", "Y", "X"))
    assert normal_form(same.poly(p), gb).terms == {(1, 1, 0): 3, (0, 0, 0): 2}


def test_constant_generator_rejected():
    r = ring_yx()
    with pytest.raises(PolyError):
        IdealPresentation(r, [r.one()], 2)
    with pytest.raises(PolyError):
        IdealPresentation(r, [], 0)
