"""Groebner bases (Buchberger) and normal forms for truncated ideals.

The ideals here always contain every monomial of total degree r + 1, which
keeps the quotient finite-dimensional and Buchberger trivially terminating.
Coefficients are rational. Every reduction, in Buchberger and in normal
forms, is the remainder of Polynomial.divide by the basis.
"""

from itertools import combinations

from .poly import PolyError, monomials


class IdealPresentation:
    __slots__ = ("ring", "generators", "truncation_order")

    def __init__(self, ring, generators, truncation_order):
        if truncation_order < 1:
            raise PolyError("truncation order must be positive")
        gens = []
        for g in generators:
            g = ring.coerce(g)
            if g.is_constant() and g:
                raise PolyError("a nonzero constant generator makes the quotient trivial")
            if g:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.truncation_order = truncation_order


class GroebnerBasis:
    __slots__ = ("ring", "elements", "truncation_order")

    def __init__(self, ring, elements, truncation_order):
        self.ring = ring
        self.elements = tuple(elements)
        self.truncation_order = truncation_order


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _lcm_exps(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def buchberger(ideal):
    """Reduced monic Groebner basis of generators + degree-(r+1) monomials."""
    ring = ideal.ring
    r = ideal.truncation_order
    gens = list(ideal.generators)
    basis = []
    for g in gens + [ring.monomial(e) for e in monomials(len(ring.vars), r + 1, r + 1)]:
        g = g.divide(basis)[1]
        if g:
            basis.append(g.monic())
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        gi, gj = basis[i], basis[j]
        li, lj = gi.leading()[0], gj.leading()[0]
        lcm = _lcm_exps(li, lj)
        if tuple(a + b for a, b in zip(li, lj)) == lcm:
            continue  # coprime leading monomials
        si = tuple(a - b for a, b in zip(lcm, li))
        sj = tuple(a - b for a, b in zip(lcm, lj))
        s = ring.monomial(si) * gi - ring.monomial(sj) * gj
        s = s.divide(basis)[1]
        if s:
            basis.append(s.monic())
            k = len(basis) - 1
            pairs.extend((t, k) for t in range(k))
    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(basis):
        li = g.leading()[0]
        if any(
            _divides(basis[j].leading()[0], li)
            for j in range(len(basis))
            if j != i and (j < i or basis[j].leading()[0] != li)
        ):
            continue
        keep.append(g)
    # tail-reduce each against the others
    final = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        final.append(g.divide(others)[1].monic())
    final.sort(key=lambda g: ring.order.key(g.leading()[0]))
    return GroebnerBasis(ring, final, r)


def normal_form(p, gb):
    """Remainder of p by the basis; p's ring must have the basis's variables
    and precedence (Polynomial.divide raises PolyError otherwise)."""
    return p.divide(gb.elements)[1]


def standard_monomials(gb):
    """Monomials of degree <= r outside the leading-term ideal, ascending."""
    ring, r = gb.ring, gb.truncation_order
    leads = [g.leading()[0] for g in gb.elements]
    out = [e for e in monomials(len(ring.vars), 0, r) if not any(_divides(le, e) for le in leads)]
    out.sort(key=ring.order.key)
    return out


def nf_table(gb):
    """Normal form of every monomial of degree <= r (the truncation order).

    Returns a dict exponent tuple -> Polynomial supported on standard
    monomials. Every monomial of degree >= r + 1 lies in the ideal, so a
    product of basis monomials missing from the table is zero.
    """
    ring, r = gb.ring, gb.truncation_order
    return {e: normal_form(ring.monomial(e), gb) for e in monomials(len(ring.vars), 0, r)}
