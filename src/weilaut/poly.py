"""Sparse multivariate polynomials over an exact scalar field.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
Coefficients are Fraction over the rational field and FieldElement over an
extension; all arithmetic on them is duck-typed. The only monomial order is
graded lexicographic, configurable by a precedence permutation of the
variables.

A polynomial is immutable once built: every operation returns a new one (or
the operand itself when nothing changes), and no code writes its terms dict
after construction. Every cache on a polynomial relies on this: its
rendering (__repr__), its variable set (vars_used), its primitive form
(primitive) and its linear leads (linear_leads) are each computed once, on
first use, and stay valid for the polynomial's lifetime. Because substitute
returns the operand itself when a binding does not touch it, the facts
survive a solver step for every equation the step leaves alone.
"""

from fractions import Fraction
from itertools import compress
from math import gcd
from operator import add, itemgetter

from .scalar import FieldElement, _udivmod, _utrim, eval_rational, field_div, sign_of


class PolyError(ArithmeticError):
    pass


class MonomialOrder:
    """grlex refined by a precedence permutation (indices, highest first)."""

    __slots__ = ("precedence", "_pick")

    def __init__(self, precedence):
        self.precedence = tuple(precedence)
        # itemgetter of one index returns a bare value and of none raises;
        # with at most one variable the precedence is the identity anyway
        self._pick = itemgetter(*self.precedence) if len(self.precedence) > 1 else tuple

    def key(self, exps):
        return (sum(exps), self._pick(exps))


def monomials(nvars, lo, hi):
    """Exponent tuples in nvars variables with lo <= total degree <= hi.

    They come in ascending lexicographic order of the tuples.
    """
    if nvars == 1:
        return [(k,) for k in range(max(lo, 0), hi + 1)]
    return [(k,) + rest for k in range(hi + 1) for rest in monomials(nvars - 1, lo - k, hi - k)]


class PolyRing:
    __slots__ = ("vars", "domain", "order", "index")

    def __init__(self, variables, domain, precedence=None):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise PolyError("duplicate variable names")
        self.domain = domain
        self.index = {v: i for i, v in enumerate(self.vars)}
        if precedence is None:
            order = tuple(range(len(self.vars)))
        else:
            if sorted(precedence) != sorted(self.vars):
                raise PolyError("precedence must permute the variables")
            order = tuple(self.index[v] for v in precedence)
        self.order = MonomialOrder(order)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, x):
        c = self.domain.coerce(x)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.vars): c})

    def var(self, name):
        e = [0] * len(self.vars)
        e[self.index[name]] = 1
        return Polynomial(self, {tuple(e): self.domain.coerce(1)})

    def monomial(self, exps, coeff=1):
        c = self.domain.coerce(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    def poly(self, terms):
        out = {}
        for exps, c in terms.items():
            c = self.domain.coerce(c)
            if c:
                out[tuple(exps)] = c
        return Polynomial(self, out)

    def coerce(self, x):
        if isinstance(x, Polynomial):
            if x.ring is not self:
                raise PolyError("polynomial from another ring")
            return x
        return self.const(x)

    def lift(self, p):
        """p, over the same variables and a subfield, as a polynomial of this ring."""
        if p.ring.vars != self.vars:
            raise PolyError("polynomial over other variables")
        return p.map_coeffs(self.domain.coerce, self)

    def monomial_str(self, exps):
        parts = []
        # the variables with a nonzero exponent, paired with it
        for v, e in zip(compress(self.vars, exps), filter(None, exps)):
            parts.append(v if e == 1 else "%s^%d" % (v, e))
        return "*".join(parts) if parts else "1"


def _coeff_str(c):
    # render a coefficient followed by '*', empty for 1
    if isinstance(c, FieldElement) and not c.is_rational_value():
        s = "(%r)" % (c,)
        return s + "*", False
    q = c.rational_value() if isinstance(c, FieldElement) else Fraction(c)
    neg = q < 0
    q = abs(q)
    return ("" if q == 1 else str(q) + "*"), neg


class Polynomial:
    # _primitive is None before primitive() is first called, True when the
    # polynomial is its own primitive form (a flag, not a reference to
    # itself, so no polynomial keeps itself alive), else the primitive form
    __slots__ = ("ring", "terms", "_repr", "_vars", "_primitive", "_leads")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._repr = None
        self._vars = None
        self._primitive = None
        self._leads = None

    # -- basics ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = self.ring.const(other)
            except (TypeError, ValueError, ArithmeticError):
                return NotImplemented
        elif other.ring.vars != self.ring.vars:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var):
        i = self.ring.index[var]
        return max((e[i] for e in self.terms), default=-1)

    def vars_used(self):
        """The frozenset of the variables that occur in some term."""
        if self._vars is None:
            names = self.ring.vars
            self._vars = frozenset().union(*(compress(names, e) for e in self.terms))
        return self._vars

    def linear_leads(self):
        """(var, exps, coeff) for each variable of degree exactly 1 whose
        coefficient is a single term, in ring order: self is
        var * coeff * monomial(exps) plus terms free of var.
        """
        if self._leads is None:
            index = self.ring.index
            leads = []
            for v in sorted(self.vars_used(), key=index.get):
                i = index[v]
                hits = [e for e in self.terms if e[i]]
                if len(hits) == 1 and hits[0][i] == 1:
                    e = hits[0]
                    leads.append((v, e[:i] + (0,) + e[i + 1 :], self.terms[e]))
            self._leads = tuple(leads)
        return self._leads

    def constant_value(self):
        if not self.terms:
            return self.ring.domain.coerce(0)
        (exps, c), = self.terms.items()
        if any(exps):
            raise PolyError("not a constant")
        return c

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def leading(self):
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        key = self.ring.order.key
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self.ring.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.domain.coerce(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        if other.ring is not self.ring:
            raise PolyError("polynomial from another ring")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by n multiplications with self.

        For sparse polynomials repeated multiplication costs fewer term
        products than repeated squaring (Fateman, 1974): det(M1)^15 on the
        3-variable jet of order 3 takes a quarter of the time.
        """
        if n < 0:
            raise PolyError("negative power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def map_coeffs(self, fn, ring=None):
        ring = ring or self.ring
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return Polynomial(ring, out)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, mapping):
        """Replace variables by polynomials (or scalars) of the same ring.

        Only bindings of variables that occur are coerced and powered. Terms
        are accumulated in the order a term-by-term sum of rest * powers
        would insert them, so the result's term order is reproducible.
        """
        if not mapping or not self.terms:
            return self
        ring = self.ring
        used = self.vars_used()
        subs = [(ring.index[v], ring.coerce(p)) for v, p in mapping.items() if v in used]
        if not subs:
            return self
        pows = [{1: p} for _, p in subs]
        out = {}

        def add(e, c):
            s = out.get(e)
            if s is None:
                out[e] = c
                return
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]

        for e, c in self.terms.items():
            rest = list(e)
            piece = None
            for (i, p), cache in zip(subs, pows):
                k = e[i]
                if not k:
                    continue
                rest[i] = 0
                for j in range(len(cache) + 1, k + 1):
                    cache[j] = cache[j - 1] * p
                piece = cache[k] if piece is None else piece * cache[k]
            if piece is None:
                add(e, c)
                continue
            for e2, c2 in piece.terms.items():
                add(tuple(a + b for a, b in zip(rest, e2)), c * c2)
        return Polynomial(ring, out)

    def evaluate(self, values):
        """Evaluate at scalars; every used variable must be given.

        Only the variables that occur in a term are looked up in values, so
        the cost does not grow with the number of variables of the ring.
        """
        names = self.ring.vars
        powers = {}  # variable position -> [1, x, x^2, ...]
        acc = self.ring.domain.coerce(0)
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if not k:
                    continue
                row = powers.get(i)
                if row is None:
                    x = values.get(names[i])
                    if x is None:
                        raise PolyError("no value for %s" % names[i])
                    row = powers[i] = [1, x]
                while len(row) <= k:
                    row.append(row[-1] * row[1])
                t = t * row[k]
            acc = acc + t
        return acc

    # -- structure ----------------------------------------------------------

    def content_exps(self):
        """Exponents of the largest monomial dividing every term."""
        if not self.terms:
            return (0,) * len(self.ring.vars)
        it = iter(self.terms)
        m = list(next(it))
        for e in it:
            for i, k in enumerate(e):
                if k < m[i]:
                    m[i] = k
        return tuple(m)

    def divide_monomial(self, exps):
        out = {}
        for e, c in self.terms.items():
            ne = tuple(a - b for a, b in zip(e, exps))
            if any(k < 0 for k in ne):
                raise PolyError("monomial does not divide")
            out[ne] = c
        return Polynomial(self.ring, out)

    def monic(self):
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == 1:
            return self
        inv = field_div(1, lc)
        return self.map_coeffs(lambda c: c * inv)

    def primitive(self):
        """Divide by the rational content, sign so the leading coeff is positive.

        Only meaningful when all coefficients are rational; otherwise falls
        back to monic(). Computed once and remembered; a rational result is
        marked as its own primitive form. (A monic result is not: its
        coefficients may be rational with a content other than 1.)
        """
        cached = self._primitive
        if cached is None:
            cached = self._make_primitive()
            self._primitive = True if cached is self else cached
            return cached
        return self if cached is True else cached

    def _make_primitive(self):
        if not self.terms:
            return self
        qs = []
        for c in self.terms.values():
            if isinstance(c, FieldElement):
                if not c.is_rational_value():
                    return self.monic()
                qs.append(c.rational_value())
            else:
                qs.append(c)
        num = 0
        den = 1
        for q in qs:
            num = gcd(num, q.numerator)
            den = den * q.denominator // gcd(den, q.denominator)
        _, lc = self.leading()
        lq = lc.rational_value() if isinstance(lc, FieldElement) else lc
        if num == den == 1 and lq > 0:
            return self
        content = Fraction(num, den)
        if lq < 0:
            content = -content
        out = self.map_coeffs(lambda c: c * (1 / content))
        out._primitive = True
        return out

    def exact_div(self, other):
        """Exact polynomial division; raises PolyError on a remainder."""
        other = self.ring.coerce(other)
        if not other:
            raise ZeroDivisionError("exact_div by zero")
        if other.is_constant():
            inv = field_div(1, other.constant_value())
            return self.map_coeffs(lambda v: v * inv)
        # imported here: loading heapq would add to every import of weilaut
        from heapq import heapify, heappop, heappush
        rem = dict(self.terms)
        q = {}
        dexps, dc = other.leading()
        dinv = field_div(1, dc)
        tail = [(e, c) for e, c in other.terms.items() if e != dexps]
        prec = self.ring.order.precedence

        def entry(e):
            # heapq pops the smallest, so negate the order key
            return (-sum(e), tuple(-e[i] for i in prec)), e

        heap = [entry(e) for e in rem]
        heapify(heap)
        while heap:
            exps = heappop(heap)[1]
            c = rem.pop(exps, None)
            if c is None:
                continue
            ne = tuple(a - b for a, b in zip(exps, dexps))
            if any(k < 0 for k in ne):
                raise PolyError("division is not exact")
            c = c * dinv
            q[ne] = c
            for f, fc in tail:
                e = tuple(a + b for a, b in zip(ne, f))
                t = c * fc
                s = rem.get(e)
                if s is None:
                    rem[e] = -t
                    heappush(heap, entry(e))
                else:
                    s = s - t
                    if s:
                        rem[e] = s
                    else:
                        del rem[e]
        return Polynomial(self.ring, q)

    def derivative(self, var):
        i = self.ring.index[var]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                nc = c * e[i]
                if nc:
                    out[tuple(ne)] = nc
        return Polynomial(self.ring, out)

    def coeffs_in(self, var):
        """dict degree -> coefficient polynomial (free of var)."""
        i = self.ring.index[var]
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            d = out.setdefault(k, {})
            d[tuple(ne)] = c
        return {k: Polynomial(self.ring, d) for k, d in out.items()}

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        if self._repr is None:
            self._repr = self._render()
        return self._repr

    def _render(self):
        if not self.terms:
            return "0"
        key = self.ring.order.key
        parts = []
        for exps in sorted(self.terms, key=key, reverse=True):
            c = self.terms[exps]
            cs, neg = _coeff_str(c)
            mono = self.ring.monomial_str(exps)
            if mono == "1":
                if isinstance(c, FieldElement) and not c.is_rational_value():
                    body = "(%r)" % (c,)
                else:
                    q = c.rational_value() if isinstance(c, FieldElement) else Fraction(c)
                    body = str(abs(q))
            else:
                body = cs + mono
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


# -- univariate tools: coefficient lists over the scalar field ---------------


def univariate_coeffs(p, var=None):
    """Coefficient list (constant first) of a polynomial using one variable."""
    used = p.vars_used()
    if var is None:
        if len(used) > 1:
            raise PolyError("polynomial is not univariate")
        var = next(iter(used)) if used else p.ring.vars[0]
    elif used - {var}:
        raise PolyError("polynomial uses more than %s" % var)
    i = p.ring.index[var]
    n = p.degree_in(var)
    out = [p.ring.domain.coerce(0)] * (n + 1)
    for e, c in p.terms.items():
        out[e[i]] = c
    return out


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


def sturm_count(p, interval=(None, None)):
    """Distinct real roots of a univariate polynomial in (lo, hi].

    p is a Polynomial in one variable (or a coefficient list); None endpoints
    mean -oo / +oo. Signs of extension-field values go through scalar.sign_of.
    """
    coeffs = list(p) if isinstance(p, (list, tuple)) else univariate_coeffs(p)
    coeffs = _utrim(coeffs)
    if not coeffs:
        raise PolyError("zero polynomial")
    if len(coeffs) == 1:
        return 0
    d = _uderiv(coeffs)
    g = _ugcd_monic(coeffs, d)
    if len(g) > 1:
        coeffs, r = _udivmod(coeffs, g)
        if r:
            raise PolyError("univariate division not exact")
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


def resultant(p, q, var):
    """Sylvester-matrix resultant of p and q with respect to var."""
    if not isinstance(p, Polynomial) or not isinstance(q, Polynomial):
        raise PolyError("polynomial operands required")
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m <= 0 or n <= 0:
        raise PolyError("both polynomials need positive degree in %s" % var)
    ring = p.ring
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    size = m + n
    zero = ring.zero()
    rows = []
    for i in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[i + (m - k)] = pc.get(k, zero)
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[i + (n - k)] = qc.get(k, zero)
        rows.append(row)
    from .linalg import bareiss_determinant
    return bareiss_determinant(rows, Polynomial.exact_div)
