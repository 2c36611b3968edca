import random
from decimal import Decimal
from fractions import Fraction

import pytest

from weilaut.scalar import (ExtensionField, FieldElement, FieldError, QQ, _udivmod,
                            field_div, kth_root_in_field, rational, rational_kth_root,
                            sign_of)


def cbrt4_field():
    return ExtensionField((-4, 0, 0, 1), (1, 2))


def test_rational_arithmetic():
    assert field_div(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    assert field_div(1, 4) == Fraction(1, 4)
    assert isinstance(field_div(1, 4), Fraction)
    with pytest.raises(ZeroDivisionError):
        field_div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        field_div(1, cbrt4_field().zero())


def test_field_div_of_ints_is_never_a_float():
    assert field_div(6, 3) == 2 and type(field_div(6, 3)) is int
    assert field_div(1, 3) == Fraction(1, 3) and type(field_div(1, 3)) is Fraction
    assert type(field_div(Fraction(4, 3), Fraction(2, 3))) is int
    assert type(field_div(-6, Fraction(3, 2))) is int
    r = kth_root_in_field(QQ, 8, 3)
    assert r == 2 and type(r) is int
    assert type(kth_root_in_field(QQ, Fraction(8, 27), 3)) is Fraction
    assert kth_root_in_field(QQ, 2, 3) is None


def test_qq_coerce_gives_the_one_rational_form():
    # an integral value is a bare int, any other rational a Fraction
    for x in (3, Fraction(3), Fraction(6, 2), "3"):
        assert QQ.coerce(x) == 3 and type(QQ.coerce(x)) is int
    assert type(QQ.one()) is int and type(QQ.zero()) is int
    assert QQ.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert type(QQ.coerce(Fraction(1, 3))) is Fraction
    assert type(rational(True)) is int


def test_rational_keeps_a_fraction_and_converts_the_rest():
    third = Fraction(1, 3)
    assert rational(third) is third
    whole = rational(Fraction(6, 2))
    assert whole == 3 and type(whole) is int
    others = (
        (5, 5), (True, 1), ("3", 3), ("-2/6", Fraction(-1, 3)), (0.5, Fraction(1, 2)), (Decimal("1.5"), Fraction(3, 2))
    )
    for x, want in others:
        got = rational(x)
        assert got == want and type(got) is type(want)
    with pytest.raises(ValueError):
        rational("x")


def test_generator_cube_is_four():
    F = cbrt4_field()
    c = F.gen()
    assert c * c * c == F.coerce(4)
    assert c ** 3 == 4


def test_generator_inverse():
    F = cbrt4_field()
    c = F.gen()
    assert 1 / c == c * c / 4
    assert c * (1 / c) == F.one()


def test_mixed_fields_error():
    F = cbrt4_field()
    G = ExtensionField((-2, 0, 1), (1, 2))
    with pytest.raises(FieldError):
        F.gen() + G.gen()


def test_sign_of_zero_and_simple():
    F = cbrt4_field()
    assert sign_of(F.zero()) == 0
    assert sign_of(Fraction(-7, 3)) == -1
    # cbrt(4) > 1
    assert sign_of(F.gen() - 1) == 1


def test_sign_of_two_c_minus_four():
    # independent bisection oracle for cbrt(4) < 2: the minimal polynomial
    # changes sign on (1, 2), so the root lies below 2 and 2c - 4 < 0 there
    F = cbrt4_field()
    p = lambda x: x ** 3 - 4
    assert p(F.lo) < 0 < p(F.hi) and F.hi <= 2
    assert sign_of(2 * F.gen() - 4) == -1


def test_bad_interval_rejected():
    with pytest.raises(FieldError):
        ExtensionField((-4, 0, 0, 1), (2, 3))


def rand_elem(F, rng):
    return F.element([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(F.degree)])


def test_field_axioms_randomized():
    F = cbrt4_field()
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_elem(F, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == F.one()
            assert b / a * a == b
            assert field_div(b, a) == b / a
            assert field_div(1, a) * a == F.one()


def coeffs_of(x):
    return list(x.coeffs) if isinstance(x, FieldElement) else [x, 0, 0]


def cbrt4_product(a, b):
    # (sum a_i c^i) (sum b_j c^j) with c^3 = 4, by hand
    out = [Fraction(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % 3] += x * y * 4 ** ((i + j) // 3)
    return out


def proportional(a, b):
    # b = q * a for a rational q; a is not the zero vector
    k = next(i for i, x in enumerate(a) if x)
    return all(y * a[k] == x * b[k] for x, y in zip(a, b))


def test_one_form_per_value():
    # a result is a Fraction exactly when its value is rational, that is
    # when its coefficients of c and c^2 vanish (1, c, c^2 is a basis)
    F = cbrt4_field()
    rng = random.Random(14)

    def check(x, is_rational):
        # an integral value is an int, any other rational a Fraction
        if is_rational:
            assert type(x) is (int if x.denominator == 1 else Fraction)
        else:
            assert type(x) is FieldElement

    for _ in range(80):
        a, b = rand_elem(F, rng), rand_elem(F, rng)
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for b in (b, a + q, q * a):
            ca, cb = coeffs_of(a), coeffs_of(b)
            check(a + b, not any(x + y for x, y in zip(ca[1:], cb[1:])))
            check(a - b, not any(x - y for x, y in zip(ca[1:], cb[1:])))
            check(a * b, not any(cbrt4_product(ca, cb)[1:]))
            if a:
                check(b / a, proportional(ca, cb))
                check(field_div(b, a), proportional(ca, cb))
                check(b * (1 / a), proportional(ca, cb))
            if isinstance(a, FieldElement):
                check(a.inverse(), False)
    c = F.gen()
    for x in (c ** 3, c * c * c, F.coerce(2), F.element([3]), F.one(), F.zero(),
              kth_root_in_field(F, 8, 3), c * (1 / c), c - c, c * 0,
              (c + Fraction(1, 2)) - (c - Fraction(1, 2))):
        assert type(x) is int
    # c / c is the int 1, and int / int is a float: divide through field_div
    for x in (F.coerce(Fraction(2, 3)), F.element([Fraction(1, 3)]), field_div(c / c, 3)):
        assert type(x) is Fraction


def test_sign_multiplicative_randomized():
    F = cbrt4_field()
    rng = random.Random(12)
    for _ in range(40):
        a, b = rand_elem(F, rng), rand_elem(F, rng)
        if a and b:
            assert sign_of(a * b) == sign_of(a) * sign_of(b)


def test_normalization_idempotent():
    q = Fraction(6, -4)
    assert q.denominator > 0
    assert Fraction(q.numerator, q.denominator) == q


def test_rational_kth_root():
    assert rational_kth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_kth_root(Fraction(-1, 8), 3) == Fraction(-1, 2)
    assert rational_kth_root(Fraction(4), 2) == 2
    assert rational_kth_root(Fraction(-4), 2) is None
    assert rational_kth_root(Fraction(5), 3) is None


def test_kth_root_in_field():
    F = cbrt4_field()
    c = F.gen()
    # 4 = c^3 is a cube: root c
    assert kth_root_in_field(F, 4, 3) == c
    # -2 = (-c^2/2)^3
    r = kth_root_in_field(F, -2, 3)
    assert r == -c * c / 2 and r ** 3 == F.coerce(-2)
    # 9c^2/4 is a square with positive root 3c/2
    s = kth_root_in_field(F, 9 * c * c / 4, 2)
    assert s == 3 * c / 2 and sign_of(s) > 0
    assert kth_root_in_field(F, 5, 3) is None
    assert kth_root_in_field(QQ, Fraction(27, 8), 3) == Fraction(3, 2)
    assert kth_root_in_field(QQ, 2, 2) is None


def schoolbook_divmod(a, b):
    """Long division by hand, one quotient coefficient per step from the top."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        f = r[k + len(b) - 1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] = r[k + i] - f * c
    r = r[: len(b) - 1]
    while q and not q[-1]:
        q.pop()
    while r and not r[-1]:
        r.pop()
    return q, r


def test_udivmod_matches_schoolbook_division():
    F = cbrt4_field()
    rng = random.Random(13)
    rational = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    for draw in (rational, lambda: rand_elem(F, rng)):
        for _ in range(40):
            a = [draw() for _ in range(rng.randint(0, 6))]
            b = [draw() for _ in range(rng.randint(0, 3))] + [draw() or 1]
            q, r = _udivmod(a, b)
            assert (q, r) == schoolbook_divmod(a, b)
            assert len(r) < len(b)
