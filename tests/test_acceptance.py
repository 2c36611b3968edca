"""Acceptance gate.

One test per contract criterion, exact arithmetic throughout. Each test
prints a single pass/fail line straight to the real stdout so the gate
stays visible in captured runs.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from operator import floordiv

import pytest

from weilaut.cli import main
from weilaut.endo import (
    SymbolicMatrix,
    constraint_system,
    extend_to_matrix,
    generic_endo,
    linear_matrix,
    numeric_instantiate,
    substitute,
)
from weilaut.linalg import bareiss_determinant
from weilaut.parsing import parse_polynomial, parse_specfile
from weilaut.poly import PolyRing
from weilaut.quotient import normal_form
from weilaut.published import QUARTIC, match_reference_family, reference_for
from weilaut.report import analyze, build_report
from weilaut.scalar import QQ, ExtensionField
from weilaut.solver import Branch, Contradiction, close_branch
from weilaut.specdata import spec_path
from weilaut.weil import build_algebra, structure_product

from oracles import degree_one, identity_point, matmul, principal

ALGEBRAS = ("tangent2", "quartic", "sextic")


def load_spec(name):
    with open(spec_path(name)) as fh:
        return parse_specfile(fh.read())[0]


@pytest.fixture(scope="module")
def pipeline():
    out = {}
    for name in ALGEBRAS:
        analysis = analyze(load_spec(name))
        out[name] = (analysis, build_report(analysis))
    return out


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def gate(num, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print("criterion %d (%s): FAIL" % (num, label))
            raise
        with capfd.disabled():
            print("criterion %d (%s): pass" % (num, label))

    return gate


def frac(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def family_point(fam, rng):
    point = {}
    for name in fam.free:
        x = frac(rng)
        while name in fam.nonzero and x == 0:
            x = frac(rng)
        point[name] = x
    for name, val in fam.bindings.items():
        point[name] = val.evaluate(point)
    return point


def in_family(fam, point):
    for name, val in fam.bindings.items():
        if point[name] != val.evaluate(point):
            return False
    for name in fam.nonzero:
        if point[name] == 0:
            return False
    for cond in fam.conditions:
        if cond.evaluate(point) == 0:
            return False
    return True


def test_criterion_1_tangent_pair_reproduction(pipeline, criterion):
    with criterion(1, "tangent pair reproduction"):
        analysis, rep = pipeline["tangent2"]
        assert rep["algebra"]["dim"] == 4
        assert rep["basis"] == ["1", "X", "Y", "XY"]
        assert rep["constraints"]["reference"] == ["A*D", "B*E"]
        # the derived pair is the printed pair after the B <-> D renaming,
        # and the report carries the difference as a discrepancy item
        ring = analysis.endo.ring
        swap = {"B": ring.var("D"), "D": ring.var("B")}
        derived = {repr(eq.substitute(swap).primitive()) for eq in analysis.system.equations}
        assert derived == {"A*D", "B*E"}
        assert any(d["where"] == "constraint system" for d in rep["discrepancies"])
        # four branches: two families, two dead ends
        assert len(analysis.result.families) == 2
        assert len(analysis.result.contradictions) == 2
        zero_sets = {tuple(sorted(f.bindings)) for f in analysis.result.families}
        assert zero_sets == {("A", "E"), ("B", "D")}
        # each family's specialized matrix equals the printed shape entrywise
        data = reference_for(analysis.spec)
        full = extend_to_matrix(analysis.endo)
        for fam in analysis.result.families:
            ref = match_reference_family(data, fam)
            spec_m = substitute(full, fam.bindings)
            for row, printed_row in zip(spec_m.entries, ref["matrix"]):
                for entry, printed in zip(row, printed_row):
                    assert entry == parse_polynomial(printed, ring)
        dets = {(d["full"], d["linear"]) for d in rep["determinants"]["families"]}
        assert dets == {("A^2*E^2", "A*E"), ("-B^2*D^2", "-B*D")}
        assert rep["components"] == 8


def test_criterion_2_quartic_reproduction(pipeline, criterion):
    with criterion(2, "quartic reproduction"):
        analysis, rep = pipeline["quartic"]
        assert rep["algebra"]["dim"] == 10
        assert rep["algebra"]["precedence"] == ["Y", "X"]
        assert rep["basis"] == [
            "1", "X", "Y", "X^2", "XY", "Y^2", "X^3", "X^2Y", "XY^2", "X^4",
        ]
        fams = rep["families"]
        assert len(fams) == 1
        assert fams[0]["bindings"] == {"B": "0", "J": "0", "K": "A", "M": "C"}
        assert fams[0]["nonzero"] == ["A"]
        # recompute the determinants of the printed matrices exactly
        ring = analysis.endo.ring
        data = QUARTIC["families"][0]
        entries = [[parse_polynomial(e, ring) for e in row] for row in data["matrix"]]
        printed = SymbolicMatrix(ring, entries, data["labels"])
        assert repr(printed.det()) == "4*A^21"
        assert [repr(p) for p in printed.diagonal()] == data["diagonal"]
        assert data["diagonal"] == [
            "A", "A", "A^2", "A^2", "A^2", "2*A^3", "A^3", "A^3", "2*A^4",
        ]
        lin_entries = [
            [parse_polynomial(e, ring) for e in row] for row in data["linear_matrix"]
        ]
        lin = SymbolicMatrix(ring, lin_entries, ["X", "Y"])
        assert repr(lin.det()) == "A^2"
        ref = rep["determinants"]["reference"][0]
        assert ref["full"] == "4*A^21"
        assert ref["linear"] == "A^2"
        mine = rep["determinants"]["families"][0]
        assert mine["full"] == "A^21"
        assert mine["linear"] == "A^2"
        assert rep["det1_image"] == "(0,inf)"
        # discrepancy section must list the sign differences and the count
        wheres = [d["where"] for d in rep["discrepancies"]]
        for needed in (
            "equation X^3*Y -> X^4",
            "equation X^2*Y^2 -> X^4",
            "equation Y^4 -> X^4",
            "equation X^3 - Y^3 -> X^4 at B = 0, J = 0, K = A",
            "det of the nilpotent-block matrix",
            "component count",
        ):
            assert needed in wheres
        count = next(d for d in rep["discrepancies"] if d["where"] == "component count")
        assert count["derived"] == "2"
        assert "connected" in count["printed"]
        assert rep["components"] == 2


def test_criterion_3_beta_branch_contradiction(criterion):
    with criterion(3, "beta branch has no real solution"):
        t0 = time.perf_counter()
        beta = QUARTIC["beta"]
        assert beta["extension"] == "c^3 = 4"
        field = ExtensionField((-4, 0, 0, 1), (1, 2))
        ring = PolyRing(("A", "B"), field)
        lift = PolyRing(("A", "B", "c"), QQ)
        gen = field.gen()

        def over_field(text):
            out = ring.zero()
            for (ea, eb, ec), coeff in parse_polynomial(text, lift).terms.items():
                out = out + ring.monomial((ea, eb), field.coerce(coeff) * gen**ec)
            return out

        equations = [over_field(t) for t in beta["brackets"]]
        guard = over_field(beta["guard"])
        br = Branch(ring, equations, ring.one(), {}, [guard], ("beta",), 0)
        leaves = close_branch(br)
        elapsed = time.perf_counter() - t0
        assert len(leaves) == 1
        assert isinstance(leaves[0], Contradiction)
        assert leaves[0].reason == "no-real-solution"
        assert "eliminated B by resultant" in leaves[0].detail
        assert elapsed < 5.0


def test_criterion_4_sextic_closure(pipeline, criterion):
    with criterion(4, "sextic constraints and closure"):
        t0 = time.perf_counter()
        endo = generic_endo(build_algebra(load_spec("sextic")))
        system = constraint_system(endo)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        ident = identity_point(endo)
        assert all(eq.evaluate(ident) == 0 for eq in system.equations)
        assert system.nondegeneracy[0].evaluate(ident) != 0
        analysis, rep = pipeline["sextic"]
        assert analysis.result.closed()
        fam = analysis.result.families[0]
        lin = substitute(linear_matrix(analysis.endo), fam.bindings)
        one, zero = analysis.endo.ring.one(), analysis.endo.ring.zero()
        for i, row in enumerate(lin.entries):
            for j, entry in enumerate(row):
                assert entry == (one if i == j else zero)
        assert rep["det1_image"] == "{1}"


def test_criterion_5_oracle_equivalence(pipeline, criterion):
    with criterion(5, "symbolic system matches the numeric ground truth"):
        for name in ALGEBRAS:
            analysis, _ = pipeline[name]
            endo, system = analysis.endo, analysis.system
            alg = analysis.algebra
            fams = analysis.result.families
            mul = lambda u, v: structure_product(alg, u, v, Fraction(0))
            rng = random.Random(700 + alg.dim)
            points = [{u: frac(rng) for u in endo.unknowns} for _ in range(100)]
            points += [family_point(fams[k % len(fams)], rng) for k in range(100)]
            vanished = held = 0
            for point in points:
                sym = all(eq.evaluate(point) == 0 for eq in system.equations)
                num = numeric_instantiate(endo, point)
                assert sym == num.is_homomorphism
                if sym:
                    vanished += 1
                else:
                    held += 1
            assert vanished >= 100 and held >= 1

            rng = random.Random(500 + alg.dim)
            for _ in range(500):
                u = [frac(rng) for _ in range(alg.dim)]
                v = [frac(rng) for _ in range(alg.dim)]
                pu = sum(
                    (alg.ring.monomial(e, c) for e, c in zip(alg.basis, u)),
                    alg.ring.zero(),
                )
                pv = sum(
                    (alg.ring.monomial(e, c) for e, c in zip(alg.basis, v)),
                    alg.ring.zero(),
                )
                nf = normal_form(pu * pv, alg.gb)
                want = [nf.terms.get(e, 0) for e in alg.basis]
                assert mul(u, v) == want

            basis = [[Fraction(int(i == k)) for k in range(alg.dim)] for i in range(alg.dim)]
            for i in range(alg.dim):
                bi = basis[i]
                assert mul(basis[0], bi) == bi
                for j in range(i, alg.dim):
                    bj = basis[j]
                    assert mul(bi, bj) == mul(bj, bi)
                    for k in range(j, alg.dim):
                        bk = basis[k]
                        assert mul(mul(bi, bj), bk) == mul(bi, mul(bj, bk))


def rational_determinant(rows):
    """det of a matrix of Fractions, fraction-free: each row is cleared of its
    denominators, Bareiss runs on the ints, and the result is divided by the
    product of the row scales."""
    ints = []
    scale = 1
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return Fraction(bareiss_determinant(ints, floordiv), scale)


def test_criterion_6_determinant_homomorphism(pipeline, criterion):
    with criterion(6, "determinants are multiplicative"):
        det = rational_determinant
        for name in ALGEBRAS:
            analysis, _ = pipeline[name]
            alg, endo = analysis.algebra, analysis.endo
            deg1, nil = degree_one(alg), alg.nil_indices
            for fi, fam in enumerate(analysis.result.families):
                rng = random.Random(600 + 10 * alg.dim + fi)
                for _ in range(100):
                    phi = numeric_instantiate(endo, family_point(fam, rng))
                    psi = numeric_instantiate(endo, family_point(fam, rng))
                    assert phi.is_automorphism and psi.is_automorphism
                    both = matmul(phi.matrix, psi.matrix)
                    d1 = det(principal(both, deg1))
                    df = det(principal(both, nil))
                    assert d1 == det(principal(phi.matrix, deg1)) * det(principal(psi.matrix, deg1))
                    assert df == det(principal(phi.matrix, nil)) * det(principal(psi.matrix, nil))


def test_criterion_7_grid_completeness(pipeline, criterion):
    with criterion(7, "grid scan finds no stray automorphism"):
        analysis, _ = pipeline["tangent2"]
        endo, system = analysis.endo, analysis.system
        fams = analysis.result.families
        used = set()
        for eq in system.equations:
            used |= eq.vars_used()
        used |= system.nondegeneracy[0].vars_used()
        # C and F are unconstrained, so scanning them adds nothing
        assert used <= {"A", "B", "D", "E"}
        grid = [Fraction(v) for v in (-2, -1, "-1/2", 0, "1/2", 1, 2)]
        found = 0
        for a in grid:
            for b in grid:
                for d in grid:
                    for e in grid:
                        point = {
                            "A": a, "B": b, "D": d, "E": e,
                            "C": Fraction(1, 2), "F": Fraction(-2),
                        }
                        sym = all(q.evaluate(point) == 0 for q in system.equations)
                        sym = sym and system.nondegeneracy[0].evaluate(point) != 0
                        num = numeric_instantiate(endo, point).is_automorphism
                        member = any(in_family(f, point) for f in fams)
                        assert sym == num == member
                        if num:
                            found += 1
        assert found == 72


def test_criterion_8_byte_identical_reports(tmp_path, criterion):
    with criterion(8, "solve reports are byte-identical"):
        for name in ALGEBRAS:
            p1 = tmp_path / (name + "-1.json")
            p2 = tmp_path / (name + "-2.json")
            assert main(["solve", spec_path(name), "--json", str(p1), "--seed", "0"]) == 0
            assert main(["solve", spec_path(name), "--json", str(p2), "--seed", "0"]) == 0
            blob = p1.read_bytes()
            assert blob and blob == p2.read_bytes()
