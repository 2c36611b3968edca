"""Family determinants along the m-adic filtration m > m^2 > ...

Full Bareiss on the whole nil block is the oracle (oracles.plain_bareiss,
which reads no nonzero pattern): on every family the product of the
diagonal-block determinants (oracles.filtered_determinant, which tests the
lower blocks for zeros itself), the package's bareiss_determinant and the
reported det M, which takes det(M1)^C(n+d-1, d-1) on every full-size piece
d, must equal it, and the first block must give det M1. The report's
graded matrix, built from truncated images, must equal the full matrix on
every entry of the diagonal and lower blocks. The package's own check,
check_block_triangular, which SymbolicMatrix.det runs on a nil block that
carries its graded pieces, is tested on the generic cusp matrix, which is
not block triangular.
"""

import os
import subprocess
import sys
from math import comb

import pytest

import weilaut
from weilaut.endo import (
    SymbolicMatrix,
    extend_to_matrix,
    generic_endo,
    linear_matrix,
    specialize,
    substitute,
    symmetric_power_exponent,
)
from weilaut.linalg import LinalgError, bareiss_determinant, check_block_triangular
from weilaut.parsing import parse_polynomial, parse_specfile
from weilaut.poly import PolyRing
from weilaut.published import QUARTIC
from weilaut.report import analyze, family_determinants
from weilaut.scalar import ExtensionField
from weilaut.solver import SolutionFamily
from weilaut.specdata import spec_path
from weilaut.weil import build_algebra

from oracles import filtered_determinant, plain_bareiss
from test_weil import both_precedences, random_spec_texts

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus.alg")

PROBES = """
algebra cusp { vars: X, Y; order: 4; relations: X^2 - Y^3; }
algebra tan3 { vars: X, Y, Z; order: 3; relations: X^2, Y^2, Z^2; }
algebra jet23 { vars: X, Y; order: 3; relations: ; }
algebra jet24 { vars: X, Y; order: 4; relations: ; }
algebra jet32 { vars: X, Y, Z; order: 2; relations: ; }
algebra line { vars: X, Y; order: 3; relations: X - Y; }
algebra xy { vars: X, Y; order: 3; relations: X*Y; }
"""

SHIPPED = ("tangent2", "quartic", "sextic")


def div(a, b):
    return a.exact_div(b)


def load(name):
    if name in SHIPPED:
        with open(spec_path(name), encoding="utf-8") as fh:
            return parse_specfile(fh.read())[0]
    return {s.name: s for s in parse_specfile(PROBES)}[name]


def reversed_precedence(spec):
    return spec.with_precedence(tuple(reversed(spec.precedence or spec.variables)))


def graded_cases():
    """The corpus, the shipped three, and two random presentations with a
    basis monomial deeper than its degree at both precedences: truncating
    each image at its own piece breaks their diagonal blocks."""
    with open(CORPUS, encoding="utf-8") as fh:
        specs = parse_specfile(fh.read())
    specs += [load(name) for name in SHIPPED]
    texts = random_spec_texts(2, 150)
    return specs + both_precedences([parse_specfile(texts[t])[0] for t in (127, 143)])


def family_matrices(analysis, fam):
    """The nil-block matrix and the degree-one matrix on one family."""
    endo = analysis.endo
    out = []
    for m in (extend_to_matrix(endo), linear_matrix(endo)):
        lifted = [[fam.ring.lift(p) for p in row] for row in m.entries]
        out.append(substitute(SymbolicMatrix(fam.ring, lifted, m.labels), fam.bindings))
    return tuple(out)


def full_pieces(pieces):
    """Whether each graded piece d has the size C(n+d-1, d) of Sym^d."""
    n = len(pieces[0])
    return [len(p) == comb(n + d - 1, d) for d, p in enumerate(pieces, start=1)]


@pytest.mark.parametrize(
    "name, full",
    (
        ("quartic", [True, True, False, False]),
        ("sextic", [True, True, False, False, False, False]),
        ("tan3", [True, False, False]),
        ("jet24", [True, True, True, True]),
        # X = Y leaves one variable: n = 1, every piece is full
        ("line", [True, True, True]),
        ("xy", [True, False, False]),
    ),
)
def test_which_pieces_are_symmetric_powers(name, full):
    assert full_pieces(build_algebra(load(name)).graded_pieces()) == full


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_power_exponent_is_d_times_size_over_n(n):
    for d in range(1, 8):
        assert symmetric_power_exponent(n, d) * n == d * comb(n + d - 1, d)


@pytest.mark.parametrize("flip", (False, True), ids=("shipped", "reversed"))
@pytest.mark.parametrize(
    "name", SHIPPED + ("cusp", "tan3", "jet23", "jet24", "jet32", "line", "xy")
)
def test_block_product_equals_full_bareiss(name, flip):
    spec = load(name)
    if flip:
        spec = reversed_precedence(spec)
    analysis = analyze(spec)
    pieces = analysis.algebra.graded_pieces()
    for fam in analysis.result.families:
        full, lin = family_matrices(analysis, fam)
        det = plain_bareiss(full.entries, div)
        assert filtered_determinant(full.entries, pieces, div) == det
        assert bareiss_determinant(full.entries, div) == det
        det1 = plain_bareiss(full.block(pieces[0]).entries, div)
        assert det1 == plain_bareiss(lin.entries, div)
        reported = family_determinants(analysis.endo, fam)
        assert reported["full"] == repr(det)
        assert reported["linear"] == repr(det1)


@pytest.mark.parametrize(
    "spec", graded_cases(), ids=lambda s: "%s-%s" % (s.name, "".join(s.precedence or s.variables))
)
def test_graded_matrix_is_exact_on_the_blocks_det_reads(spec):
    analysis = analyze(spec)
    pieces = analysis.algebra.graded_pieces()
    piece = {p: d for d, positions in enumerate(pieces) for p in positions}
    # the generic endomorphism too: the kept entries are exact for any images
    endos = [analysis.endo]
    endos += [specialize(analysis.endo, fam.ring, fam.bindings) for fam in analysis.result.families]
    for k, endo in enumerate(endos):
        graded = extend_to_matrix(endo, graded=True)
        full = extend_to_matrix(endo)
        for i, (graded_row, full_row) in enumerate(zip(graded.entries, full.entries)):
            for j, (g, f) in enumerate(zip(graded_row, full_row)):
                # the diagonal and lower blocks exactly, zeros above them
                assert g == (f if piece[j] <= piece[i] else 0), (k, graded.labels[i], graded.labels[j])
        if k:
            assert graded.det() == full.det()
            assert graded.diagonal() == full.diagonal()


def test_quartic_block_factors_against_the_printed_matrix():
    analysis = analyze(load("quartic"))
    (fam,) = analysis.result.families
    ref = QUARTIC["families"][0]
    ring = analysis.endo.ring
    full, _ = family_matrices(analysis, fam)
    assert full.labels == ref["labels"]
    pieces = analysis.algebra.graded_pieces()
    assert [[full.labels[i] for i in p] for p in pieces] == [
        ["X", "Y"],
        ["X^2", "X*Y", "Y^2"],
        ["X^3", "X^2*Y", "X*Y^2"],
        ["X^4"],
    ]
    factors = [full.block(p).det() for p in pieces]
    assert [repr(f) for f in factors] == ["A^2", "A^6", "A^9", "A^4"]
    det = filtered_determinant(full.entries, pieces, div)
    assert det == parse_polynomial("A^21", ring)
    assert repr(det) == family_determinants(analysis.endo, fam)["full"]
    # the printed matrix is block triangular too; its factor 4 comes from
    # the printed diagonal entries 2*A^3 at X^3 and 2*A^4 at X^4
    printed = [[parse_polynomial(e, ring) for e in row] for row in ref["matrix"]]
    printed_det = filtered_determinant(printed, pieces, div)
    assert printed_det == parse_polynomial(ref["det_full"], ring)
    assert printed_det == 4 * det


def cusp_generic_nil_matrix():
    algebra = build_algebra(load("cusp"))
    return extend_to_matrix(generic_endo(algebra)).entries, algebra.graded_pieces()


def test_generic_cusp_matrix_is_not_block_triangular():
    # X^2 = Y^3 lies in m^3, but the generic image of X^2 has a Y^2 term
    rows, pieces = cusp_generic_nil_matrix()
    with pytest.raises(LinalgError):
        check_block_triangular(rows, pieces)
    ring = rows[0][0].ring
    with pytest.raises(LinalgError):
        SymbolicMatrix(ring, rows, [""] * len(rows), pieces).det()


def test_triangularity_check_survives_optimized_python():
    code = "\n".join((
        "import sys",
        "sys.path.insert(0, %r)" % os.path.dirname(__file__),
        "from test_filtration import cusp_generic_nil_matrix",
        "from weilaut.endo import SymbolicMatrix",
        "from weilaut.linalg import LinalgError, check_block_triangular",
        "assert False, 'asserts are on'",
        "rows, pieces = cusp_generic_nil_matrix()",
        "matrix = SymbolicMatrix(rows[0][0].ring, rows, [''] * len(rows), pieces)",
        "for check in (lambda: check_block_triangular(rows, pieces), lambda: matrix.det()):",
        "    try:",
        "        check()",
        "    except LinalgError:",
        "        print('raised')",
    ))
    src = os.path.dirname(os.path.dirname(os.path.abspath(weilaut.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "raised\nraised\n"


def test_blocks_must_partition_the_matrix():
    rows, pieces = cusp_generic_nil_matrix()
    with pytest.raises(LinalgError):
        check_block_triangular(rows, pieces[:-1])
    with pytest.raises(LinalgError):
        check_block_triangular(rows, pieces + (pieces[0],))


def test_family_over_an_extension_field_reports_its_determinants():
    # tangent2's first family, its bindings mapped into Q(cbrt 4): the
    # determinants are the rational family's, lifted into the family's ring
    analysis = analyze(load("tangent2"))
    fam = analysis.result.families[0]
    ring = PolyRing(fam.ring.vars, ExtensionField((-4, 0, 0, 1), (1, 2)))
    lifted = SolutionFamily(
        fam.path,
        ring,
        {k: ring.lift(v) for k, v in fam.bindings.items()},
        fam.free,
        fam.nonzero,
        [ring.lift(p) for p in fam.conditions],
        ring.lift(fam.nondeg_value),
    )
    assert fam.bindings and fam.ring.domain is not ring.domain
    want = family_determinants(analysis.endo, fam)
    assert want["full"] == "-B^2*D^2" and want["linear"] == "-B*D"
    assert family_determinants(analysis.endo, lifted) == want
    full, lin = family_matrices(analysis, lifted)
    assert full.ring is ring
    assert full.det() == ring.lift(parse_polynomial(want["full"], fam.ring))
    assert lin.det() == ring.lift(parse_polynomial(want["linear"], fam.ring))
