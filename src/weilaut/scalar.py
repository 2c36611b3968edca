"""Exact scalar arithmetic: rationals and simple real algebraic extensions.

An ExtensionField is Q[c]/(p(c)) for a monic p with one isolated real root;
elements are coefficient tuples reduced mod p. No floating point anywhere.

A scalar has one form per value. A rational value is a bare int when it is
integral and a Fraction otherwise, in every field, Q itself (degree 1,
p = x) included; rational() makes that form, and _normal, ExtensionField's
coerce and field_div return through it. int and Fraction of equal value
compare and hash equal and print alike, and integral arithmetic runs on
machine integers. A FieldElement always has an irrational value, so it is
never zero and never equal to a rational. Every FieldElement result passes
through one normalizer, _normal, which returns a rational when the
coefficients of c, c^2, ... are zero. This relies on p being irreducible,
which ExtensionField requires of its caller: then an element whose
coefficients of c, c^2, ... are not all zero is not rational, and a nonzero
element is invertible. Callers tell the two forms apart by
isinstance(x, FieldElement) alone. Between two ints / gives a float, so
every division of scalars goes through field_div.

This is also the univariate kernel: a univariate polynomial is a coefficient
list over one of these fields, constant first, and its arithmetic (division,
gcd, derivative, evaluation, Sturm count) lives here.
"""

from fractions import Fraction


class FieldError(ArithmeticError):
    pass


def rational(x):
    """The one form of a rational value: an int when it is integral, else a
    Fraction. A Fraction argument is not rebuilt."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _utrim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _uadd(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _utrim(out)


def _uscale(a, s):
    return _utrim([c * s for c in a])


def _umul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _utrim(out)


def _udivmod(a, b):
    """Quotient and remainder of coefficient lists over a field; b != 0."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = field_div(1, b[-1])
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] * inv
        q[k] = f
        for i, cb in enumerate(b):
            a[k + i] -= f * cb
        _utrim(a)
    return _utrim(q), a


def eval_rational(coeffs, x):
    """Horner evaluation of a coefficient list at a rational or field point."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_interval(coeffs, lo, hi):
    # interval Horner with exact rational endpoints
    rlo = rhi = Fraction(0)
    for c in reversed(coeffs):
        cands = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo, rhi = min(cands) + c, max(cands) + c
    return rlo, rhi


def _ugcd_monic(a, b):
    a, b = _utrim(list(a)), _utrim(list(b))
    while b:
        a, b = b, _udivmod(a, b)[1]
    if not a:
        return a
    inv = field_div(1, a[-1])
    return [c * inv for c in a]


def _uderiv(a):
    return _utrim([a[i] * i for i in range(1, len(a))])


def sturm_count(coeffs, interval=(None, None)):
    """Distinct real roots in (lo, hi] of a nonzero coefficient list; a None
    endpoint is -oo / +oo (Basu, Pollack, Roy, Algorithms in Real Algebraic
    Geometry, ch. 2)."""
    coeffs = _utrim(list(coeffs))
    if not coeffs:
        raise FieldError("zero polynomial")
    if len(coeffs) == 1:
        return 0
    d = _uderiv(coeffs)
    g = _ugcd_monic(coeffs, d)
    if len(g) > 1:
        coeffs, r = _udivmod(coeffs, g)
        if r:
            raise FieldError("univariate division not exact")
    if len(coeffs) == 1:
        return 0
    chain = [coeffs, _uderiv(coeffs)]
    while len(chain[-1]) > 1:
        r = _udivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    lo, hi = interval

    def variations(x, at_inf):
        signs = []
        for q in chain:
            if at_inf == 0:
                s = sign_of(eval_rational(q, x))
            else:
                s = sign_of(q[-1])
                if at_inf < 0 and (len(q) - 1) % 2 == 1:
                    s = -s
            if s:
                signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    vlo = variations(Fraction(lo), 0) if lo is not None else variations(None, -1)
    vhi = variations(Fraction(hi), 0) if hi is not None else variations(None, +1)
    return vlo - vhi


class ExtensionField:
    """Q[c]/(minpoly) with a rational interval isolating one real root.

    minpoly is a coefficient tuple (constant first), monic. Irreducibility is
    the caller's contract, and the one form per scalar value relies on it.
    Degree 1 is the rational field itself.
    """

    __slots__ = ("minpoly", "lo", "hi")

    # the generator's name in renderings and in the report's "field" entry
    gen_name = "c"

    def __init__(self, minpoly, root_interval=(0, 0)):
        mp = tuple(rational(a) for a in minpoly)
        if len(mp) < 2 or mp[-1] != 1:
            raise FieldError("minimal polynomial must be monic of degree >= 1")
        self.minpoly = mp
        self.lo = Fraction(root_interval[0])
        self.hi = Fraction(root_interval[1])
        if self.degree > 1:
            slo = eval_rational(mp, self.lo)
            shi = eval_rational(mp, self.hi)
            if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
                raise FieldError("root interval must give a sign change of the minimal polynomial")

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def coerce(self, x):
        """x as a scalar of this field: a FieldElement of this field itself,
        anything rational in its one form (rational)."""
        if isinstance(x, FieldElement):
            if x.field.minpoly != self.minpoly:
                raise FieldError("element of a different field")
            return x
        return rational(x)

    def element(self, coeffs):
        """sum(coeffs[i] * c^i) from at most degree rational coeffs: a
        rational when only coeffs[0] is nonzero, else a FieldElement."""
        return _normal(self, [rational(a) for a in coeffs])

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def gen(self):
        if self.degree == 1:
            raise FieldError("rational field has no generator")
        return self.element([0, 1])


def poly_str(coeffs, var):
    """Render a univariate coefficient list, highest power first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            mono = str(abs(c))
        else:
            mono = var if i == 1 else "%s^%d" % (var, i)
            if abs(c) != 1:
                mono = "%s*%s" % (abs(c), mono)
        if not parts:
            parts.append(mono if c > 0 else "-" + mono)
        else:
            parts.append(("+ " if c > 0 else "- ") + mono)
    return " ".join(parts) if parts else "0"


QQ = ExtensionField((0, 1))


def _normal(field, cs):
    """The scalar sum(cs[i] * c^i) of field, from a list of at most degree
    rationals: rational(cs[0]) (0 for an empty list) when the rest are zero,
    else a FieldElement with the list padded to degree coefficients."""
    if not any(cs[1:]):
        return rational(cs[0]) if cs else 0
    return FieldElement(field, tuple(cs) + (0,) * (field.degree - len(cs)))


class FieldElement:
    """An element of an ExtensionField with an irrational value; build one
    through the field (element, gen) or by arithmetic, never directly."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _other(self, other):
        # the coefficient tuple of another FieldElement of this field
        if other.field.minpoly != self.field.minpoly:
            raise FieldError("mixed fields")
        return other.coeffs

    # a rational operand touches coeffs[0] (+, -) or scales coeffs (*), with
    # no padded tuple, product or reduction by the minimal polynomial

    def __add__(self, other):
        if isinstance(other, FieldElement):
            return _normal(self.field, [a + b for a, b in zip(self.coeffs, self._other(other))])
        if isinstance(other, (int, Fraction)):
            return _normal(self.field, [self.coeffs[0] + other, *self.coeffs[1:]])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            return _normal(self.field, [a - b for a, b in zip(self.coeffs, self._other(other))])
        if isinstance(other, (int, Fraction)):
            return _normal(self.field, [self.coeffs[0] - other, *self.coeffs[1:]])
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            _, rem = _udivmod(_umul(self.coeffs, self._other(other)), self.field.minpoly)
            return _normal(self.field, rem)
        if isinstance(other, (int, Fraction)):
            return _normal(self.field, [a * other for a in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        # extended Euclid against the minimal polynomial
        r0, r1 = list(self.field.minpoly), _utrim(list(self.coeffs))
        t0, t1 = [], [1]
        while r1:
            q, r = _udivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _uadd(t0, _uscale(_umul(q, t1), -1))
        if len(r0) != 1:
            raise FieldError("element not invertible (reducible minimal polynomial?)")
        return _normal(self.field, _uscale(t0, field_div(1, r0[0])))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return field_div(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == self._other(other)
        if isinstance(other, (int, Fraction)):
            return False  # a FieldElement is irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.field.minpoly, self.coeffs))

    def __repr__(self):
        return poly_str(self.coeffs, self.field.gen_name)


def field_div(a, b):
    """a / b for scalars of one field: ints, Fractions or FieldElements. Two
    rationals give a rational in its one form, never a float."""
    if isinstance(b, FieldElement):
        return a * b.inverse()
    if isinstance(a, FieldElement):
        return a * Fraction(1, b)
    return rational(Fraction(a, b))


def sign_of(a):
    """Sign (-1, 0, +1) of a scalar at the field's isolated real root."""
    if isinstance(a, (int, Fraction)):
        return (a > 0) - (a < 0)
    field = a.field
    lo, hi = field.lo, field.hi
    mp = list(field.minpoly)
    slo = eval_rational(mp, lo)
    cs = list(a.coeffs)
    while True:
        vlo, vhi = _eval_interval(cs, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        mid = (lo + hi) / 2
        smid = eval_rational(mp, mid)
        if smid == 0:
            # the isolated root turned out rational: evaluate exactly
            v = eval_rational(cs, mid)
            return (v > 0) - (v < 0)
        if (smid > 0) == (slo > 0):
            lo, slo = mid, smid
        else:
            hi = mid


def rational_kth_root(q, k):
    """Exact k-th root of a rational, in its one form, or None. Negative q
    needs odd k."""
    q = Fraction(q)
    if q == 0:
        return 0
    neg = q < 0
    if neg:
        if k % 2 == 0:
            return None
        q = -q
    rn = _int_kth_root(q.numerator, k)
    rd = _int_kth_root(q.denominator, k)
    if rn is None or rd is None:
        return None
    r = rational(Fraction(rn, rd))
    return -r if neg else r


def _int_kth_root(n, k):
    if n == 0:
        return 0
    if n == 1:
        return 1
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == n else None


def kth_root_in_field(field, d, k):
    """A field element r with r**k == d, or None.

    d is rational or a field element. Searches roots of monomial shape
    q*c^j, which is complete for the pure-power minimal polynomials
    (c^m - d0) this package builds; for even k the positive root is returned.
    """
    d = field.coerce(d)
    if field.degree == 1:
        return rational_kth_root(d, k)
    mp = field.minpoly
    m = field.degree
    if any(mp[i] for i in range(1, m)):
        return None  # not a pure power extension; out of scope
    d0 = -mp[0]
    # target as q*c^j?
    cs = d.coeffs if isinstance(d, FieldElement) else (d,)
    nz = [i for i, c in enumerate(cs) if c]
    if len(nz) != 1:
        return None
    jd, qd = nz[0], cs[nz[0]]
    for j in range(m):
        # (s*c^j)^k = s^k * d0^(kj div m) * c^(kj mod m)
        if (k * j) % m != jd:
            continue
        base = d0 ** ((k * j) // m)
        s = rational_kth_root(field_div(qd, base), k)
        if s is None:
            continue
        root = field.element([0] * j + [s])
        if k % 2 == 0 and sign_of(root) < 0:
            root = -root
        return root
    return None
