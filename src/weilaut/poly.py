"""Sparse multivariate polynomials over an exact scalar field.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
A coefficient with a rational value is an int when it is integral and a
Fraction otherwise, over every field, and one with an irrational value is a
FieldElement of the ring's extension field (scalar.py keeps that one form
per value). The constructor is the one place a coefficient takes its form:
it rewrites an integral Fraction, which arithmetic on Fractions returns, to
its numerator, so products of integral polynomials run on machine integers.
int and Fraction of equal value compare, hash and print alike, so the form
changes no term dict comparison, hash or rendering. All arithmetic on
coefficients is duck-typed. The only monomial order is graded
lexicographic, configurable by a precedence permutation of the variables.

A polynomial is immutable once built: every operation returns a new one (or
the operand itself when nothing changes), and no code writes its terms dict
after construction. Every cache on a polynomial relies on this: its
rendering (__repr__), its total degree (total_degree, which also answers
is_constant), its variable set (vars_used), its primitive form
(primitive), its linear leads (linear_leads: the variables that occur only
in one term c*var, c a constant) and its leading term (leading) are each
computed once, on first use, and stay valid for the polynomial's
lifetime. Because substitute returns the operand itself when a binding does
not touch it, the facts survive a solver step for every equation the step
leaves alone.

Multivariate division has one implementation, divide: it returns the
quotients and the remainder by a list of divisors in one pass. exact_div is
division by one divisor with a zero remainder; by a divisor of one term (a
constant or c*m) it divides term by term instead, with no heap, and gives
the quotient's terms in divide's order. The Groebner bases and normal forms
of quotient.py are remainders by the basis.

A univariate polynomial is a coefficient list, handled by scalar.py's
kernel; univariate_coeffs is the one bridge to it from a Polynomial.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, itemgetter, le, neg, sub

from .scalar import FieldElement, field_div


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
    if isinstance(c, FieldElement):
        return "(%r)*" % (c,), False
    q = abs(c)
    return ("" if q == 1 else str(q) + "*"), c < 0


class Polynomial:
    # _primitive is None before primitive() is first called, True when the
    # polynomial is its own primitive form (a flag, not a reference to
    # itself, so no polynomial keeps itself alive), else the primitive form
    __slots__ = ("ring", "terms", "_repr", "_degree", "_vars", "_primitive", "_leads", "_leading")

    def __init__(self, ring, terms):
        # an integral Fraction becomes its numerator (replacing the value of
        # a key is allowed while iterating)
        for e, c in terms.items():
            if c.__class__ is Fraction and c.denominator == 1:
                terms[e] = c.numerator
        self.ring = ring
        self.terms = terms
        self._repr = None
        self._degree = None
        self._vars = None
        self._primitive = None
        self._leads = None
        self._leading = None

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
        """The largest degree of a term, -1 for the zero polynomial."""
        if self._degree is None:
            self._degree = max(map(sum, self.terms), default=-1)
        return self._degree

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
        """(var, coeff) for each variable, in ring order, whose only term is
        coeff * var: self is coeff * var plus terms free of var."""
        if self._leads is None:
            index = self.ring.index
            leads = []
            for v in sorted(self.vars_used(), key=index.get):
                i = index[v]
                hits = [e for e in self.terms if e[i]]
                if len(hits) == 1 and sum(hits[0]) == 1:
                    leads.append((v, self.terms[hits[0]]))
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
        return self.total_degree() <= 0

    def leading(self):
        """(exps, coeff) of the largest term in the ring's monomial order."""
        if self._leading is None:
            if not self.terms:
                raise PolyError("zero polynomial has no leading term")
            exps = max(self.terms, key=self.ring.order.key)
            self._leading = exps, self.terms[exps]
        return self._leading

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
        """self^n: one step for a single term c*m, which gives c^n*m^n;
        otherwise n multiplications with self.

        For sparse polynomials repeated multiplication costs fewer term
        products than repeated squaring (Fateman, 1974): det(M1)^15 on the
        3-variable jet of order 3 takes a quarter of the time.
        """
        if n < 0:
            raise PolyError("negative power")
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            return Polynomial(self.ring, {tuple(k * n for k in exps): c ** n})
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

        A polynomial that uses no variable of mapping (the zero polynomial
        among them) is returned as it is, before any binding is looked at.
        Only bindings of variables that occur are coerced and powered. Terms
        are accumulated in the order a term-by-term sum of rest * powers
        would insert them, so the result's term order is reproducible.
        """
        used = self.vars_used()
        if used.isdisjoint(mapping):
            return self
        ring = self.ring
        subs = [(ring.index[v], ring.coerce(p)) for v, p in mapping.items() if v in used]
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

        Only the variables that occur in a term are looked up in values, and
        each term visits only its nonzero exponents, so the cost does not
        grow with the number of variables of the ring.
        """
        names = self.ring.vars
        powers = {}  # variable name -> [1, x, x^2, ...]
        acc = self.ring.domain.coerce(0)
        for e, c in self.terms.items():
            t = c
            # the variables with a nonzero exponent, paired with it
            for v, k in zip(compress(names, e), filter(None, e)):
                row = powers.get(v)
                if row is None:
                    x = values.get(v)
                    if x is None:
                        raise PolyError("no value for %s" % v)
                    row = powers[v] = [1, x]
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

        Only meaningful when every coefficient is rational; a FieldElement
        coefficient makes it fall back to monic(). Computed once and
        remembered; a rational result is marked as its own primitive form.
        (A monic result is not: its coefficients may be rational with a
        content other than 1.)
        """
        cached = self._primitive
        if cached is None:
            cached = self._make_primitive()
            self._primitive = True if cached is self else cached
            return cached
        return self if cached is True else cached

    def _make_primitive(self):
        """The primitive form, built. The rational content is the gcd of the
        numerators over the lcm of the denominators, read from ints (n/1)
        and Fractions alike; each coefficient is multiplied by its inverse,
        taken with field_div."""
        if not self.terms:
            return self
        qs = self.terms.values()
        if any(isinstance(c, FieldElement) for c in qs):
            return self.monic()
        num = gcd(*(q.numerator for q in qs))
        den = lcm(*(q.denominator for q in qs))
        _, lc = self.leading()
        if num == den == 1 and lc > 0:
            return self
        # multiply by 1 / content, content = +-num/den
        inv = field_div(den, -num if lc < 0 else num)
        out = self.map_coeffs(lambda c: c * inv)
        out._primitive = True
        return out

    def divide(self, divisors):
        """(quotients, remainder) of self by the nonzero divisors.

        The division algorithm of Cox, Little and O'Shea (Ideals, Varieties,
        and Algorithms, 2.3): self == sum(q * d) + remainder, and no term of
        remainder is divisible by the leading monomial of any divisor. Terms
        are taken largest first; the first divisor whose leading monomial
        divides a term cancels it, and a term no leading monomial divides
        moves to the remainder. A leading coefficient other than 1 is
        inverted once, when its divisor is first used.

        Every divisor must come from a ring with self's variables and
        precedence (its field may differ): leading terms taken under another
        order would send a term back after it reached the remainder.
        """
        # imported here: loading heapq would add to every import of weilaut
        from heapq import heapify, heappop, heappush
        ring = self.ring
        for d in divisors:
            if d.ring is not ring and (
                d.ring.vars != ring.vars or d.ring.order.precedence != ring.order.precedence
            ):
                raise PolyError("divisor from a ring with other variables or another order")
        leads = [d.leading() for d in divisors]
        invs = [None] * len(leads)
        quotients = [{} for _ in leads]
        rem = {}
        work = dict(self.terms)
        key = ring.order.key

        def entry(e):
            # heapq pops the smallest, so negate the order key
            d, rest = key(e)
            return -d, tuple(map(neg, rest)), e

        heap = [entry(e) for e in work]
        heapify(heap)
        while heap:
            exps = heappop(heap)[2]
            c = work.pop(exps, None)
            if c is None:
                continue
            for i, (lexps, lc) in enumerate(leads):
                if all(map(le, lexps, exps)):
                    break
            else:
                rem[exps] = c
                continue
            if lc != 1:
                if invs[i] is None:
                    invs[i] = field_div(1, lc)
                c = c * invs[i]
            shift = tuple(map(sub, exps, lexps))
            quotients[i][shift] = c
            for f, fc in divisors[i].terms.items():
                if f is lexps:  # leading() returns the terms dict's own key
                    continue
                e = tuple(map(add, shift, f))
                t = c * fc
                s = work.get(e)
                if s is None:
                    work[e] = -t
                    heappush(heap, entry(e))
                else:
                    s = s - t
                    if s:
                        work[e] = s
                    else:
                        del work[e]
        return tuple(Polynomial(ring, q) for q in quotients), Polynomial(ring, rem)

    def exact_div(self, other):
        """Exact polynomial division; raises PolyError on a remainder.

        A divisor of one term c*m (a constant when m is 1) divides term by
        term, and a term that m does not divide raises PolyError. The
        quotient's terms come largest first, the order divide gives, which
        takes every other divisor.
        """
        other = self.ring.coerce(other)
        if not other:
            raise ZeroDivisionError("exact_div by zero")
        if len(other.terms) == 1:
            (lexps, lc), = other.terms.items()
            inv = None if lc == 1 else field_div(1, lc)
            shift = any(lexps)
            terms = self.terms
            out = {}
            for e in sorted(terms, key=self.ring.order.key, reverse=True):
                c = terms[e] if inv is None else terms[e] * inv
                if shift:
                    e = tuple(map(sub, e, lexps))
                    if min(e) < 0:
                        raise PolyError("division is not exact")
                out[e] = c
            return Polynomial(self.ring, out)
        (q,), r = self.divide((other,))
        if r:
            raise PolyError("division is not exact")
        return q

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
            cs, neg = _coeff_str(self.terms[exps])
            mono = self.ring.monomial_str(exps)
            # a constant term is its coefficient's text without the '*'
            body = (cs[:-1] or "1") if mono == "1" else cs + mono
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


def univariate_coeffs(p, var):
    """Coefficient list (constant first) of a polynomial in var alone."""
    if p.vars_used() - {var}:
        raise PolyError("polynomial uses more than %s" % var)
    i = p.ring.index[var]
    out = [p.ring.domain.coerce(0)] * (p.degree_in(var) + 1)
    for e, c in p.terms.items():
        out[e[i]] = c
    return out


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
