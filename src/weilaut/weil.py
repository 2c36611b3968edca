"""Weil algebras: quotients of jet algebras with nilpotent maximal ideal.

A spec fixes variables, a truncation order r and extra relations; the algebra
is Q[vars]/(relations + all monomials of degree r+1). The basis is the
ascending list of standard monomials, 1 first. An element is its list of
coordinates in that basis; products are cached as structure constants, so
one multiplication, structure_product, drives both numeric elements and
symbolic endomorphism images. integral_copy rescales the constants to
integers for the numeric check, which then never leaves Python ints.
"""

from fractions import Fraction
from math import lcm

from .scalar import QQ
from .poly import PolyRing, Polynomial, monomials
from .quotient import IdealPresentation, buchberger, standard_monomials, nf_table
from .linalg import rref


class WeilError(ValueError):
    pass


class AlgebraSpec:
    __slots__ = ("name", "variables", "order", "relations", "precedence", "ring")

    def __init__(self, name, variables, order, relations, precedence=None):
        self.name = str(name)
        self.variables = tuple(variables)
        if not self.variables:
            raise WeilError("an algebra needs at least one variable")
        if int(order) < 1:
            raise WeilError("order must be a positive integer")
        self.order = int(order)
        self.precedence = tuple(precedence) if precedence else None
        self.ring = PolyRing(self.variables, QQ, self.precedence)
        rels = []
        for p in relations:
            if isinstance(p, Polynomial):
                if p.ring.vars != self.variables:
                    raise WeilError("relation uses foreign variables")
                if p.ring is not self.ring:
                    p = Polynomial(self.ring, dict(p.terms))
            else:
                p = self.ring.poly(p)
            zero_exps = (0,) * len(self.variables)
            if zero_exps in p.terms:
                raise WeilError("relation %r has a nonzero constant term" % (p,))
            if p:
                rels.append(p)
        self.relations = tuple(rels)

    def with_precedence(self, precedence):
        return AlgebraSpec(self.name, self.variables, self.order, self.relations, precedence)


class WeilAlgebra:
    __slots__ = (
        "spec",
        "ring",
        "gb",
        "basis",
        "dim",
        "basis_index",
        "structure_pairs",
        "nil_indices",
        "nil_power_indices",
        "nilpotency_order",
        "_integral",
    )

    def basis_names(self):
        return [self.ring.monomial_str(e) for e in self.basis]

    def degree_one_indices(self):
        return [i for i, e in enumerate(self.basis) if sum(e) == 1]

    def graded_pieces(self):
        """Nil-block positions spanning m^d / m^(d+1), for d = 1, 2, ...

        Each m^d is spanned by basis monomials (see nil_power_indices), so
        piece d is the monomials of m^d outside m^(d+1); piece 1 is the
        degree-one basis.
        """
        npi = self.nil_power_indices
        position = {k: p for p, k in enumerate(self.nil_indices)}
        pieces = []
        for d, span in enumerate(npi):
            deeper = set(npi[d + 1]) if d + 1 < len(npi) else set()
            pieces.append(tuple(position[k] for k in span if k not in deeper))
        return tuple(pieces)


def structure_product(algebra, u, v, zero):
    """Coordinates of the product of two coordinate vectors.

    Entries only need +, * against each other and Fractions, so the same
    routine multiplies numeric elements and vectors of symbolic polynomials.
    """
    out = [None] * algebra.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = algebra.structure_pairs[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            pairs = row[j]
            if not pairs:
                continue
            uv = ui * vj
            for k, c in pairs:
                t = uv if c == 1 else uv * c
                out[k] = t if out[k] is None else out[k] + t
    return [zero if x is None else x for x in out]


def integral_copy(algebra):
    """(Q, B): B is the algebra with every structure constant multiplied by Q.

    Q is the lcm of the constants' denominators, so B's table holds ints and
    B's product is Q times the algebra's: structure_product over B stays in
    Python ints. Built on first use and cached, since only the numeric
    product check needs it.
    """
    if algebra._integral is None:
        table = algebra.structure_pairs
        q = lcm(*(c.denominator for row in table for pairs in row for _, c in pairs))
        scaled = WeilAlgebra.__new__(WeilAlgebra)
        for name in WeilAlgebra.__slots__:
            setattr(scaled, name, getattr(algebra, name))
        scaled.structure_pairs = tuple(
            tuple(tuple((k, c.numerator * (q // c.denominator)) for k, c in pairs) for pairs in row)
            for row in table
        )
        algebra._integral = (q, scaled)
    return algebra._integral


def build_algebra(spec):
    ring = spec.ring
    ideal = IdealPresentation(ring, spec.relations, spec.order)
    gb = buchberger(ideal)
    basis = standard_monomials(gb)
    if not basis or any(basis[0]):
        raise WeilError("the unit monomial is not standard; quotient is trivial")
    alg = WeilAlgebra.__new__(WeilAlgebra)
    alg.spec = spec
    alg.ring = ring
    alg.gb = gb
    alg.basis = tuple(basis)
    alg.dim = len(basis)
    alg.basis_index = {e: i for i, e in enumerate(basis)}
    table = nf_table(gb)
    zero = ring.zero()
    pairs_table = []
    for ei in basis:
        prow = []
        for ej in basis:
            # a product of degree > r is not tabulated: it lies in the ideal
            nf = table.get(tuple(a + b for a, b in zip(ei, ej)), zero)
            prow.append(tuple(sorted((alg.basis_index[e], c) for e, c in nf.terms.items())))
        pairs_table.append(tuple(prow))
    alg.structure_pairs = tuple(pairs_table)
    alg.nil_indices = tuple(range(1, alg.dim))
    alg._integral = None

    # powers of the nilradical: span of normal forms of monomials of degree >= s
    r = spec.order
    npi = []
    for s in range(1, r + 2):
        rows = []
        for e in monomials(len(ring.vars), s, r):
            nf = table[e]
            if nf:
                coords = [Fraction(0)] * alg.dim
                for ee, c in nf.terms.items():
                    coords[alg.basis_index[ee]] = c
                rows.append(coords)
        if not rows:
            npi.append(tuple())
            continue
        red, pivots = rref(rows)
        idx = set()
        for t, row in enumerate(red[: len(pivots)]):
            nonzero = [k for k, x in enumerate(row) if x]
            if len(nonzero) != 1:
                raise WeilError("nilradical power is not spanned by basis monomials")
            idx.add(nonzero[0])
        npi.append(tuple(sorted(idx)))
    while npi and not npi[-1]:
        npi.pop()
    alg.nil_power_indices = tuple(npi)
    alg.nilpotency_order = len(npi)
    deg1 = set(alg.degree_one_indices())
    if len(npi) >= 2 and (set(npi[1]) & deg1):
        raise WeilError("a degree-one basis element lies in the square of the nilradical")
    return alg
