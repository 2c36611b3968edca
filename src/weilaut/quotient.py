"""Groebner bases (Buchberger) and normal forms for truncated ideals.

The ideals here always contain every monomial of total degree r + 1, which
keeps the quotient finite-dimensional and Buchberger trivially terminating.
Coefficients are rational. Every reduction, in Buchberger and in normal
forms, is the remainder of Polynomial.divide by the basis. The basis carries
its normal-form table: a GroebnerBasis divides every monomial of degree <= r
once when it is built, at the end of buchberger, and the standard monomials
are read off that table, as the monomials that are their own normal form.
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
    __slots__ = ("ring", "elements", "truncation_order", "normal_forms")

    def __init__(self, ring, elements, truncation_order):
        self.ring = ring
        self.elements = tuple(elements)
        self.truncation_order = truncation_order
        exps = monomials(len(ring.vars), 0, truncation_order)
        self.normal_forms = {e: normal_form(ring.monomial(e), self) for e in exps}


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
    # minimalize: drop elements whose lead is divisible by another lead; each
    # element entered reduced by those before it, so only a later lead can
    leads = [g.leading()[0] for g in basis]
    keep = [g for i, g in enumerate(basis) if not any(_divides(lj, leads[i]) for lj in leads[i + 1 :])]
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
    """Monomials of degree <= r outside the leading-term ideal, ascending:
    those that are their own normal form."""
    return sorted((e for e, f in gb.normal_forms.items() if e in f.terms), key=gb.ring.order.key)


def nf_table(gb):
    """Normal form of every monomial of degree <= r (the truncation order).

    Returns the basis's table, a dict exponent tuple -> Polynomial supported
    on standard monomials. Every monomial of degree >= r + 1 lies in the
    ideal, so a product of basis monomials missing from the table is zero.
    """
    return gb.normal_forms
