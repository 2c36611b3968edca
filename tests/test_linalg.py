"""The sparse fraction-free determinant against the Leibniz formula.

bareiss_determinant skips every product with a zero factor and never divides
a zero numerator; a nonzero entry of a row whose entry in the pivot column
is zero must still be scaled by pivot / previous pivot. Leaving such rows
unscaled, the usual wrong shortcut, breaks the comparisons below.
"""

import random
from fractions import Fraction
from operator import floordiv, truediv

import pytest

from weilaut.linalg import bareiss_determinant
from weilaut.poly import Polynomial, PolyRing
from weilaut.scalar import QQ

from oracles import permutation_determinant

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


def check(rows, div):
    got = bareiss_determinant(rows, no_zero_division(div))
    want = permutation_determinant(rows)
    assert got == want, (rows, got, want)


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
