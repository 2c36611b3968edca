"""Weil algebras: quotients of jet algebras with nilpotent maximal ideal.

A spec fixes variables, a truncation order r and extra relations; the algebra
is Q[vars]/(relations + all monomials of degree r+1). The basis is the
ascending list of standard monomials, 1 first. An element is its list of
coordinates in that basis; products are cached as structure constants, so
one multiplication, structure_product, drives both numeric elements and
symbolic endomorphism images. The table is sparse: structure_pairs[i] holds
a (j, pairs) entry, in increasing j, for each nonzero product e_i * e_j
only, pairs being its (k, coefficient) terms. structure_product takes the
table, so a rescaled or truncated copy of it multiplies with no copy of the
algebra: integral_copy rescales the constants to integers for the numeric
check, which then never leaves Python ints.

build_algebra requires each power m^s of the maximal ideal to be spanned by
basis monomials (nil_power_indices). One pass from s = r down to 1 uses
m^s = m^(s+1) + span(normal forms of degree-s monomials): the forms are cleared
on m^(s+1)'s monomials and row-reduced; each pivot row must be a unit vector,
and its monomial, new in m^s, lies in the graded piece m^s/m^(s+1) (piece).
"""

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
        "piece",
        "nil_power_indices",
        "nilpotency_order",
        "_integral",
        "_product_groups",
        "_graded_plan",
    )

    def basis_names(self):
        return [self.ring.monomial_str(e) for e in self.basis]

    def degree_one_indices(self):
        return [i for i, e in enumerate(self.basis) if sum(e) == 1]

    def graded_pieces(self):
        """Nil-block positions spanning m^d / m^(d+1), for d = 1, 2, ...

        Each m^d is spanned by basis monomials (see nil_power_indices), so
        piece d is the monomials of m^d outside m^(d+1), those whose piece
        record is d; piece 1 is the degree-one basis. Basis monomial k has
        nil-block position k - 1.
        """
        return tuple(
            tuple(k - 1 for k in range(1, self.dim) if self.piece[k] == d)
            for d in range(1, self.nilpotency_order + 1)
        )


def structure_product(table, u, v, zero):
    """Coordinates of the product of two coordinate vectors.

    table is a structure table in the form of structure_pairs, of
    dimension len(table). Entries only need +, * against each other and
    the structure constants (ints, or Fractions when not integral), so the
    same routine multiplies numeric elements and vectors of symbolic
    polynomials.
    """
    out = [None] * len(table)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, pairs in table[i]:
            vj = v[j]
            if not vj:
                continue
            uv = ui * vj
            for k, c in pairs:
                t = uv if c == 1 else uv * c
                out[k] = t if out[k] is None else out[k] + t
    return [zero if x is None else x for x in out]


def integral_copy(algebra):
    """(Q, T): T is the structure table with every constant multiplied by Q.

    Q is the lcm of the constants' denominators, so T holds ints and its
    product is Q times the algebra's: structure_product over T stays in
    Python ints. Built on first use and cached, since only the numeric
    product check needs it.
    """
    if algebra._integral is None:
        table = algebra.structure_pairs
        q = lcm(*(c.denominator for row in table for _, pairs in row for _, c in pairs))
        scaled = tuple(
            tuple((j, tuple((k, c.numerator * (q // c.denominator)) for k, c in pairs)) for j, pairs in row)
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
    pairs_table = []
    for ei in basis:
        prow = []
        for j, ej in enumerate(basis):
            # a product of degree > r is not tabulated: it lies in the ideal;
            # a zero product gets no entry in the row
            nf = table.get(tuple(a + b for a, b in zip(ei, ej)))
            if nf:
                prow.append((j, tuple(sorted((alg.basis_index[e], c) for e, c in nf.terms.items()))))
        pairs_table.append(tuple(prow))
    alg.structure_pairs = tuple(pairs_table)
    alg._integral = None
    alg._product_groups = None  # filled by endo.product_groups
    alg._graded_plan = None  # filled by endo.graded_plan

    # span: the basis monomials spanning m^(s+1), from m^(r+1) = 0
    span = set()
    npi = []
    piece = [0] * alg.dim
    for s in range(spec.order, 0, -1):
        rows = []
        for e in monomials(len(ring.vars), s, s):
            row = [0] * alg.dim
            for m, c in table[e].terms.items():
                k = alg.basis_index[m]
                if k not in span:
                    row[k] = c
            if any(row):
                rows.append(row)
        if rows:
            red, pivots = rref(rows)
            if any(sum(map(bool, row)) != 1 for row in red[: len(pivots)]):
                raise WeilError("nilradical power is not spanned by basis monomials")
            span.update(pivots)
            for k in pivots:
                piece[k] = s
        if span:
            npi.insert(0, tuple(sorted(span)))
    alg.nil_power_indices = tuple(npi)
    alg.nilpotency_order = len(npi)
    alg.piece = tuple(piece)
    deg1 = set(alg.degree_one_indices())
    if len(npi) >= 2 and (set(npi[1]) & deg1):
        raise WeilError("a degree-one basis element lies in the square of the nilradical")
    return alg
