"""The sparse fraction-free determinant against the Leibniz formula.

bareiss_determinant skips every product with a zero factor and never divides
a zero numerator; a nonzero entry of a row whose entry in the pivot column
is zero must still be scaled by pivot / previous pivot. Leaving such rows
unscaled, the usual wrong shortcut, breaks the comparisons below.

It first peels every row with a single nonzero entry among the remaining
columns, with the sign of its position: the patterns below are structurally
singular, a permutation of odd sign, triangular or block triangular in a
shuffled order, one irreducible block, or have no zero entry at all. A
matrix that is triangular up to a permutation of its rows and columns, as
the graded pieces' blocks of the traffic are, must be determined with no
division at all. Leibniz stops at n = 6; matrices of the nil blocks' sizes
(15 and more on jets) are checked against oracles.plain_bareiss, dense
elimination with no look at the pattern.
"""

import random
from fractions import Fraction
from operator import floordiv, truediv

import pytest

from weilaut.linalg import LinalgError, bareiss_determinant
from weilaut.poly import Polynomial, PolyRing
from weilaut.scalar import QQ

from oracles import perm_sign, permutation_determinant, plain_bareiss

RING = PolyRing(("X", "Y"), QQ)


def int_entry(rng):
    return rng.choice((-1, 1)) * rng.randrange(1, 6)


def fraction_entry(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 4))


def poly_entry(rng):
    p = RING.zero()
    while not p:
        for _ in range(rng.randrange(1, 3)):
            exps = (rng.randrange(2), rng.randrange(2))
            p = p + RING.monomial(exps, rng.randrange(-3, 4))
    return p


# (nonzero entry, zero entry, exact division) for each entry type
KINDS = {
    "int": (int_entry, 0, floordiv),
    "fraction": (fraction_entry, Fraction(0), truediv),
    "poly": (poly_entry, RING.zero(), Polynomial.exact_div),
}


def no_zero_division(div):
    """div, refusing a zero numerator: the kernel must never divide one."""

    def checked(a, b):
        if not a:
            raise AssertionError("a zero numerator was divided")
        return div(a, b)

    return checked


def sparse_matrix(rng, n, density, entry, zero):
    return [[entry(rng) if rng.random() < density else zero for _ in range(n)] for _ in range(n)]


def monomial_matrix(rng, n, entry, zero):
    """One nonzero entry per row and per column, at a random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [[entry(rng) if j == perm[i] else zero for j in range(n)] for i in range(n)]


def no_division(a, b):
    raise AssertionError("a division was made")


def check(rows, div):
    before = [list(row) for row in rows]
    got = bareiss_determinant(rows, no_zero_division(div))
    want = permutation_determinant(rows)
    assert got == want, (rows, got, want)
    assert rows == before
    return got


def shuffled(rows, rng):
    """rows with its rows and its columns each put in a random order."""
    n = len(rows)
    p, q = list(range(n)), list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    return [[rows[p[i]][q[j]] for j in range(n)] for i in range(n)]


def block_triangular(rng, sizes, density, entry, zero):
    """Upper block-triangular, each diagonal block with a nonzero diagonal."""
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    return [
        [
            entry(rng) if i == j or (block[i] <= block[j] and rng.random() < density) else zero
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_sparse_matrices_match_leibniz(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(26)
    # polynomial entries make Leibniz slow at n = 6, so they take fewer trials
    for _ in range(40 if kind == "poly" else 120):
        n = rng.randrange(1, 7)
        density = rng.uniform(0.2, 0.7)
        check(sparse_matrix(rng, n, density, entry, zero), div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_permutation_and_monomial_matrices(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(27)
    one = entry(rng) ** 0
    for n in range(1, 7):
        for _ in range(4):
            check(monomial_matrix(rng, n, lambda rng: one, zero), div)
            check(monomial_matrix(rng, n, entry, zero), div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_zero_first_pivot_takes_a_row_swap(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(28)
    for n in range(2, 7):
        for _ in range(6):
            rows = sparse_matrix(rng, n, 0.5, entry, zero)
            rows[0][0] = zero
            rows[rng.randrange(1, n)][0] = entry(rng)
            check(rows, div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_singular_matrices_give_zero(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(29)
    for n in range(2, 7):
        for _ in range(4):
            rows = sparse_matrix(rng, n, rng.uniform(0.2, 0.7), entry, zero)
            i, j = rng.sample(range(n), 2)
            twice = [x + x for x in rows[i]]
            for singular in (
                rows[:j] + [list(rows[i])] + rows[j + 1:],  # a repeated row
                rows[:j] + [twice] + rows[j + 1:],  # a multiple of a row
                rows[:j] + [[zero] * n] + rows[j + 1:],  # a zero row
                [row[:j] + [zero] + row[j + 1:] for row in rows],  # a zero column
            ):
                assert not bareiss_determinant(singular, no_zero_division(div))
                check(singular, div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_structurally_singular_matrices_give_the_zero_of_the_entry_type(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(30)
    for n in range(1, 7):
        for _ in range(6):
            rows = sparse_matrix(rng, n, rng.uniform(0.3, 0.9), entry, zero)
            # k rows whose nonzero entries lie in k - 1 columns (Hall)
            k = rng.randrange(1, n + 1)
            few = set(rng.sample(range(n), k - 1))
            for i in rng.sample(range(n), k):
                rows[i] = [x if j in few else zero for j, x in enumerate(rows[i])]
            got = bareiss_determinant(rows, no_zero_division(div))
            assert not got and type(got) is type(zero)
            check(rows, div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_shuffled_triangular_matrices_take_no_division(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(36)
    one = entry(rng) ** 0
    trials = 2 if kind == "poly" else 6
    for n in list(range(1, 7)) + list(range(8, 19)):
        # density 0 leaves the diagonal alone: a monomial matrix once shuffled
        cases = [(lambda rng: one, 0), (entry, 0)] + [(entry, rng.uniform(0.2, 0.9)) for _ in range(trials)]
        for fill, density in cases:
            triangular = block_triangular(rng, [1] * n, density, fill, zero)
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            rows = [[triangular[p[i]][q[j]] for j in range(n)] for i in range(n)]
            want = triangular[0][0]
            for i in range(1, n):
                want = want * triangular[i][i]
            if perm_sign(p) * perm_sign(q) == -1:
                want = -want
            before = [list(row) for row in rows]
            assert bareiss_determinant(rows, no_division) == want, rows
            assert rows == before
            if n <= 6:
                assert permutation_determinant(rows) == want


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_matching_of_odd_sign(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(31)
    for n in range(2, 7):
        for _ in range(4):
            rows = block_triangular(rng, [1] * n, 0.5, entry, zero)
            # swap two columns: the only perfect matching is a transposition
            i, j = rng.sample(range(n), 2)
            for row in rows:
                row[i], row[j] = row[j], row[i]
            assert check(rows, div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_vanishing_leading_minor_takes_a_row_swap(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(32)
    for n in range(3, 7):
        for _ in range(4):
            # no zero entry: no row is peeled and the matrix is one block,
            # whose leading 2 x 2 minor vanishes at elimination step 1
            rows = sparse_matrix(rng, n, 1.0, entry, zero)
            rows[1][:2] = rows[0][:2]
            check(rows, div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_reducible_and_irreducible_patterns(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(33)
    for _ in range(30 if kind == "poly" else 80):
        n = rng.randrange(1, 7)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randrange(1, n - sum(sizes) + 1))
        rows = block_triangular(rng, sizes, rng.uniform(0.2, 0.8), entry, zero)
        check(shuffled(rows, rng), div)
        # a cycle through every position makes the pattern irreducible
        for i in range(n):
            rows[i][(i + 1) % n] = entry(rng)
        check(shuffled(rows, rng), div)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_dense_matrices(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(34)
    for n in range(1, 7):
        for _ in range(3 if kind == "poly" else 8):
            check(sparse_matrix(rng, n, 1.0, entry, zero), div)


def test_an_empty_or_non_square_matrix_raises():
    with pytest.raises(LinalgError, match="empty matrix"):
        bareiss_determinant([], floordiv)
    for rows in ([[1, 2]], [[1, 2], [3]], [[1], [2]]):
        with pytest.raises(LinalgError, match="not square"):
            bareiss_determinant(rows, floordiv)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_large_sparse_matrices_match_plain_bareiss(kind):
    entry, zero, div = KINDS[kind]
    rng = random.Random(35)
    for _ in range(4 if kind == "poly" else 20):
        n = rng.randrange(8, 19)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randrange(1, min(6, n - sum(sizes)) + 1))
        rows = shuffled(block_triangular(rng, sizes, rng.uniform(0.1, 0.5), entry, zero), rng)
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [zero] * n
        before = [list(row) for row in rows]
        got = bareiss_determinant(rows, no_zero_division(div))
        assert got == plain_bareiss(rows, div), rows
        assert rows == before
