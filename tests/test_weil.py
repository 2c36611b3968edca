import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from weilaut.weil import AlgebraSpec, WeilError, build_algebra, integral_copy, structure_product
from weilaut.poly import monomials
from weilaut.quotient import nf_table, normal_form
from weilaut.parsing import parse_specfile
from weilaut.report import analyze, build_report, canonical_json, render_solve_text
import os

import oracles

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "weilaut", "specs")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "bench", "corpus.alg")


def load(name):
    with open(os.path.join(SPEC_DIR, name + ".alg")) as fh:
        return parse_specfile(fh.read())[0]


def tangent2():
    return build_algebra(load("tangent2"))


def quartic():
    return build_algebra(load("quartic"))


def sextic():
    return build_algebra(load("sextic"))


def mul(alg, u, v):
    return structure_product(alg.structure_pairs, u, v, Fraction(0))


def basis_vector(alg, name):
    return [Fraction(int(n == name)) for n in alg.basis_names()]


def test_tangent2_shape():
    alg = tangent2()
    assert alg.dim == 4
    assert alg.basis_names() == ["1", "X", "Y", "X*Y"]
    assert alg.nilpotency_order == 2
    # n = span{X, Y, XY}, n^2 = span{XY}
    assert alg.nil_power_indices[0] == (1, 2, 3)
    assert alg.nil_power_indices[1] == (3,)


def test_quartic_shape():
    alg = quartic()
    assert alg.dim == 10
    assert alg.basis_names() == ["1", "X", "Y", "X^2", "X*Y", "Y^2", "X^3", "X^2*Y", "X*Y^2", "X^4"]
    assert alg.nilpotency_order == 4
    x4 = alg.basis_names().index("X^4")
    assert alg.nil_power_indices[3] == (x4,)


def test_sextic_shape():
    alg = sextic()
    assert alg.dim == 15
    assert alg.basis[0] == (0, 0)
    assert len(alg.degree_one_indices()) == 2


def test_tangent2_products():
    alg = tangent2()
    X = basis_vector(alg, "X")
    Y = basis_vector(alg, "Y")
    XY = basis_vector(alg, "X*Y")
    assert mul(alg, X, Y) == XY
    assert not any(mul(alg, X, X))
    assert not any(mul(alg, X, XY))
    one = basis_vector(alg, "1")
    assert mul(alg, one, X) == X


def test_quartic_products():
    alg = quartic()
    X = basis_vector(alg, "X")
    Y = basis_vector(alg, "Y")
    Y2 = basis_vector(alg, "Y^2")
    X3 = basis_vector(alg, "X^3")
    X4 = basis_vector(alg, "X^4")
    assert mul(alg, Y, Y2) == X3
    assert mul(alg, X, X3) == X4
    assert not any(mul(alg, X, X4))
    assert mul(alg, X, mul(alg, Y, Y2)) == X4  # X * Y^3 reduces through X^4


def test_structure_tables_are_algebras():
    for alg in (tangent2(), quartic(), sextic()):
        els = [basis_vector(alg, n) for n in alg.basis_names()]
        one = els[0]
        for i, j in itertools.product(range(alg.dim), repeat=2):
            assert mul(alg, els[i], els[j]) == mul(alg, els[j], els[i])
        for e in els:
            assert mul(alg, one, e) == e
        for i, j, k in itertools.product(range(alg.dim), repeat=3):
            assert mul(alg, mul(alg, els[i], els[j]), els[k]) == mul(alg, els[i], mul(alg, els[j], els[k]))


def test_multiply_matches_normal_form_random():
    rng = random.Random(41)
    for alg in (tangent2(), quartic(), sextic()):
        ring = alg.ring
        for _ in range(60):
            a = [Fraction(rng.randrange(-4, 5)) for _ in range(alg.dim)]
            b = [Fraction(rng.randrange(-4, 5)) for _ in range(alg.dim)]
            pa = ring.poly({e: c for e, c in zip(alg.basis, a)})
            pb = ring.poly({e: c for e, c in zip(alg.basis, b)})
            want = normal_form(pa * pb, alg.gb)
            got = mul(alg, a, b)
            lifted = ring.poly({e: c for e, c in zip(alg.basis, got)})
            assert lifted == want


def corpus_and_scaled():
    with open(CORPUS) as fh:
        specs = parse_specfile(fh.read())
    specs += parse_specfile(
        "algebra scaled { vars: X, Y; order: 2; relations: X^2 - 2*Y^2, X*Y + Y^2/3; }"
    )
    return specs + [s.with_precedence(tuple(reversed(s.precedence or s.variables))) for s in specs]


@pytest.mark.parametrize(
    "spec", corpus_and_scaled(), ids=lambda s: "%s-%s" % (s.name, "".join(s.precedence or s.variables))
)
def test_product_is_the_normal_form_of_the_polynomial_product(spec):
    # the oracle multiplies polynomials and reduces by the Groebner basis,
    # never reading the structure table
    alg = build_algebra(spec)
    ring = alg.ring
    q, scaled = integral_copy(alg)
    rng = random.Random(spec.name)

    def vector(value):
        return [value() if rng.random() < 0.7 else 0 for _ in range(alg.dim)]

    for _ in range(15):
        a, b = (vector(lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))) for _ in range(2))
        want = normal_form(ring.poly(dict(zip(alg.basis, a))) * ring.poly(dict(zip(alg.basis, b))), alg.gb)
        got = structure_product(alg.structure_pairs, a, b, 0)
        assert ring.poly(dict(zip(alg.basis, got))) == want
        # the integral copy multiplies in ints, Q times the algebra's product
        a, b = (vector(lambda: rng.randrange(-9, 10)) for _ in range(2))
        got = structure_product(scaled, a, b, 0)
        assert all(type(x) is int for x in got)
        assert got == [q * x for x in structure_product(alg.structure_pairs, a, b, 0)]


def test_nil_power_dims_decrease():
    for alg in (tangent2(), quartic(), sextic()):
        dims = [len(s) for s in alg.nil_power_indices]
        assert dims[0] == alg.dim - 1
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] >= 1
        assert alg.nilpotency_order == len(dims)


def test_graded_pieces():
    cusp = build_algebra(AlgebraSpec("cusp", ("X", "Y"), 4, [{(2, 0): 1, (0, 3): -1}]))
    point = build_algebra(AlgebraSpec("point", ("X",), 1, [{(1,): 1}]))
    for alg in (tangent2(), quartic(), sextic(), cusp, point):
        pieces = alg.graded_pieces()
        assert len(pieces) == alg.nilpotency_order
        positions = sorted(p for piece in pieces for p in piece)
        assert positions == list(range(alg.dim - 1))
        if pieces:
            assert [p + 1 for p in pieces[0]] == alg.degree_one_indices()
    names = cusp.basis_names()
    by_piece = [[names[p + 1] for p in piece] for piece in cusp.graded_pieces()]
    # X^2 = Y^3 sits in m^3, not in m^2 / m^3
    assert "X^2" in by_piece[2]
    assert "X^2" not in by_piece[1]
    assert point.graded_pieces() == ()


def test_spec_validation():
    with pytest.raises(WeilError):
        AlgebraSpec("bad", ("X", "Y"), 2, [{(0, 0): 1, (2, 0): 1}])
    with pytest.raises(WeilError):
        AlgebraSpec("bad", ("X", "Y"), 0, [])
    spec = AlgebraSpec("ok", ("X", "Y"), 2, [{(2, 0): 1}])
    assert spec.relations[0].degree_in("X") == 2


TAN3 = "algebra tan3 { vars: X, Y, Z; order: 3; relations: X^2, Y^2, Z^2; }"


@pytest.mark.parametrize(
    "spec",
    [load("tangent2"), load("quartic"), load("sextic"), parse_specfile(TAN3)[0]],
    ids=lambda spec: spec.name,
)
def test_structure_pairs_are_direct_normal_forms(spec):
    alg = build_algebra(spec)
    ring, r = alg.ring, spec.order
    # the table stops at degree r; every longer product is zero in the quotient
    assert sorted(nf_table(alg.gb)) == sorted(monomials(len(ring.vars), 0, r))
    for i, ei in enumerate(alg.basis):
        stored = alg.structure_pairs[i]
        # only nonzero products are stored, in increasing j
        assert all(pairs for _, pairs in stored)
        assert all(j1 < j2 for (j1, _), (j2, _) in zip(stored, stored[1:]))
        row = dict(stored)
        for j, ej in enumerate(alg.basis):
            nf = normal_form(ring.monomial(ei) * ring.monomial(ej), alg.gb)
            want = tuple(sorted((alg.basis_index[e], c) for e, c in nf.terms.items()))
            assert row.get(j, ()) == want


NOT_SPANNED = "nilradical power is not spanned by basis monomials"
IN_SQUARE = "a degree-one basis element lies in the square of the nilradical"

# presentations whose nil powers build_algebra rejects, with its message at
# both precedences; a filtration-adapted basis (ROADMAP item 6) is to mend
# the first two, which are the sextic and the cusp after X -> X + Y
NIL_POWER_LEDGER = (
    ("algebra sextic_xy { vars: X, Y; order: 6; relations: (X + Y)^3 + Y^4, (X + Y)^4 + Y^5; }", NOT_SPANNED),
    ("algebra cusp_xy { vars: X, Y; order: 4; relations: (X + Y)^2 - Y^3; }", NOT_SPANNED),
    ("algebra parabola { vars: X, Y; order: 3; relations: X - Y^2; }", IN_SQUARE),
)


def random_spec_texts(seed, count):
    """count seeded random presentations as spec text: 2 or 3 variables,
    order 2 to 5 (2 to 3 with three variables), and 1 to 3 relations of 1
    to 3 terms each, of degree 2 to the order, coefficients in {+-1, +-2, 3}.
    """
    rng = random.Random(seed)
    texts = []
    for t in range(count):
        names = ("X", "Y", "Z")[: rng.choice((2, 3))]
        order = rng.randint(2, 5 if len(names) == 2 else 3)
        relations = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _ in range(rng.randint(1, 3)):
                exps = [0] * len(names)
                for _ in range(rng.randint(2, order)):
                    exps[rng.randrange(len(names))] += 1
                factors = ["%s^%d" % (v, k) for v, k in zip(names, exps) if k]
                terms.append("*".join(["%d" % rng.choice((1, -1, 2, -2, 3))] + factors))
            relations.append(" + ".join(terms))
        texts.append(
            "algebra r%d_%d { vars: %s; order: %d; relations: %s; }"
            % (seed, t, ", ".join(names), order, ", ".join(relations))
        )
    return texts


def both_precedences(specs):
    return [s for spec in specs for s in (spec, spec.with_precedence(tuple(reversed(spec.precedence or spec.variables))))]


def nil_power_outcome(spec):
    """build_algebra's nil_power_indices for spec, or its WeilError message."""
    try:
        alg = build_algebra(spec)
    except WeilError as exc:
        return str(exc)
    assert alg.nilpotency_order == len(alg.nil_power_indices)
    return alg.nil_power_indices


@pytest.mark.parametrize("text, message", NIL_POWER_LEDGER, ids=[text.split()[1] for text, _ in NIL_POWER_LEDGER])
def test_nil_power_ledger(text, message):
    for spec in both_precedences(parse_specfile(text)):
        assert nil_power_outcome(spec) == message == oracles.nil_powers(spec)


def test_nil_powers_match_the_rank_oracle():
    shipped = [load(name) for name in ("tangent2", "quartic", "sextic")]
    randoms = [s for text in random_spec_texts(3, 100) for s in parse_specfile(text)]
    for spec in corpus_and_scaled() + both_precedences(shipped + randoms):
        assert nil_power_outcome(spec) == oracles.nil_powers(spec), spec.name


SCOREBOARD = ("crash", "residual", "closed undetermined", "closed with a count", "det1 undetermined")


def scoreboard():
    """Tally analyze's outcome on random_spec_texts(seed, 150) for seeds 1, 5
    and 7, at both precedences, into the SCOREBOARD kinds; the first four
    are exclusive, and "det1 undetermined" counts the reports whose
    det1_image is undetermined. A crash is any exception; the Counter
    returned second holds each crash's type and message, and the last value
    is a sha256 over each presentation's canonical JSON and solve text, or
    its crash, each followed by a newline, in order."""
    tally, crashes, digest = Counter(), Counter(), hashlib.sha256()
    for seed in (1, 5, 7):
        for spec in both_precedences([s for text in random_spec_texts(seed, 150) for s in parse_specfile(text)]):
            try:
                analysis = analyze(spec)
                report = build_report(analysis)
            except Exception as exc:
                crash = "%s: %s" % (type(exc).__name__, exc)
                tally["crash"] += 1
                crashes[crash] += 1
                digest.update((crash + "\n").encode())
                continue
            digest.update((canonical_json(report) + render_solve_text(analysis, report) + "\n").encode())
            if report["residuals"]:
                tally["residual"] += 1
            elif report["components"] == "undetermined":
                tally["closed undetermined"] += 1
            else:
                tally["closed with a count"] += 1
            if report["det1_image"] == "undetermined":
                tally["det1 undetermined"] += 1
    return tally, crashes, digest.hexdigest()


if __name__ == "__main__":
    # the scoreboard of ROADMAP item 4: PYTHONPATH=src python tests/test_weil.py
    start = time.perf_counter()
    tally, crashes, digest = scoreboard()
    for kind in SCOREBOARD:
        print("%-20s %d" % (kind, tally[kind]))
    for message, n in sorted(crashes.items()):
        print("  %d x %s" % (n, message))
    print("sha256 %s" % digest)
    print("%d presentations in %.1f s" % (sum(tally[kind] for kind in SCOREBOARD[:4]), time.perf_counter() - start))
