"""Independent cross-checks used by the test suite.

Everything here is deliberately written from scratch against the underlying
definitions (permutation expansion, Macaulay-style dense elimination), not by
calling back into the package, so a bug in the library cannot hide behind the
same bug in its check. The one exception is numeric_product_check, which
reduces polynomials with the package's normal_form (itself checked against
the dense oracle and by criterion 5) but builds every image and product
from polynomial products, not from structure constants.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd

from weilaut.quotient import normal_form


def perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutation_determinant(rows):
    """Leibniz-formula determinant; fine for small matrices."""
    n = len(rows)
    acc = None
    for p in permutations(range(n)):
        term = None
        for i in range(n):
            term = rows[i][p[i]] if term is None else term * rows[i][p[i]]
        if perm_sign(p) < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def sylvester_resultant_oracle(pc, qc):
    """Resultant from descending-coefficient Fraction lists, by Leibniz.

    pc, qc are coefficient lists with the constant term first.
    """
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    zero = Fraction(0)
    rows = []
    for i in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[i + (m - k)] = Fraction(pc[k])
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[i + (n - k)] = Fraction(qc[k])
        rows.append(row)
    return permutation_determinant(rows)


def primitive_oracle(p):
    """Terms of p over its rational content, signed so that the leading
    coefficient is positive; p's coefficients must have rational values.

    The content is the gcd of the numerators over the lcm of the
    denominators, taken pairwise; the leading term is the largest
    (total degree, exponents in precedence order).
    """
    qs = [c.rational_value() if hasattr(c, "rational_value") else Fraction(c) for c in p.terms.values()]
    num, den = 0, 1
    for q in qs:
        num = gcd(num, q.numerator)
        den = den * q.denominator // gcd(den, q.denominator)
    prec = p.ring.order.precedence
    lead = max(p.terms, key=lambda e: (sum(e), [e[i] for i in prec]))
    lc = p.terms[lead]
    lq = lc.rational_value() if hasattr(lc, "rational_value") else Fraction(lc)
    content = Fraction(num, den) if lq > 0 else -Fraction(num, den)
    return {e: c / content for e, c in p.terms.items()}


def poly_from_roots(roots):
    """Fraction coefficient list (constant first) of prod (x - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return coeffs


def umul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def count_roots_in(roots, lo, hi):
    """How many distinct constructed roots land in (lo, hi]."""
    picked = set()
    for r in roots:
        r = Fraction(r)
        if (lo is None or r > lo) and (hi is None or r <= hi):
            picked.add(r)
    return len(picked)


# -- dense quotient-algebra oracle -------------------------------------------


def _dense_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _trunc(a, r):
    return {k: c for k, c in a.items() if k[0] + k[1] <= r}


def dense_quotient_oracle(relations, r, precedence=("X", "Y")):
    """Macaulay-matrix normal forms for Q[X,Y]/(relations + all deg > r).

    relations: list of dicts (i, j) -> coefficient, exponents of X and Y.
    Returns (standard monomials ascending, nf) where nf maps a dense dict to
    its reduced dense dict.
    """
    first = 0 if precedence[0] == "X" else 1

    def key(m):
        return (m[0] + m[1], m[first], m[1 - first])

    monos = [(i, j) for i in range(r + 1) for j in range(r + 1) if i + j <= r]
    monos.sort(key=key, reverse=True)
    col = {m: i for i, m in enumerate(monos)}

    rows = []
    for g in relations:
        for m in monos:
            prod = _trunc(_dense_mul({m: Fraction(1)}, g), r)
            if prod:
                rows.append(prod)

    # row reduce with pivots on the grlex-largest monomial of each row
    reduced = []  # list of (pivot monomial, dense dict with pivot coeff 1)
    for rowd in rows:
        rowd = dict(rowd)
        for pv, prow in reduced:
            c = rowd.get(pv)
            if c:
                for k, v in prow.items():
                    rowd[k] = rowd.get(k, Fraction(0)) - c * v
                rowd = {k: v for k, v in rowd.items() if v}
        if rowd:
            pv = min(rowd, key=col.get)
            inv = 1 / rowd[pv]
            rowd = {k: v * inv for k, v in rowd.items()}
            reduced.append((pv, rowd))
    # back substitute so rows are fully reduced against each other
    changed = True
    while changed:
        changed = False
        for idx, (pv, prow) in enumerate(reduced):
            for pv2, prow2 in reduced:
                if pv2 == pv:
                    continue
                c = prow.get(pv2)
                if c:
                    prow = {k: v for k, v in prow.items()}
                    for k, v in prow2.items():
                        prow[k] = prow.get(k, Fraction(0)) - c * v
                    prow = {k: v for k, v in prow.items() if v}
                    reduced[idx] = (pv, prow)
                    changed = True
            pv, prow = reduced[idx]

    pivot_set = {pv for pv, _ in reduced}
    standard = [m for m in monos if m not in pivot_set]
    standard.sort(key=key)

    table = dict(reduced)

    def nf(dense):
        out = {}
        work = {k: Fraction(c) for k, c in _trunc(dense, r).items() if c}
        # repeatedly rewrite pivot monomials
        guard = 0
        while work:
            guard += 1
            if guard > 100000:
                raise RuntimeError("oracle reduction did not terminate")
            m = max(work, key=key)
            c = work.pop(m)
            if m in table:
                for k, v in table[m].items():
                    if k == m:
                        continue
                    work[k] = work.get(k, Fraction(0)) + (-c) * v
                work = {k: v for k, v in work.items() if v}
            else:
                out[m] = out.get(m, Fraction(0)) + c
        return {k: v for k, v in out.items() if v}

    return standard, nf


# -- matrices and endomorphisms, from the definitions -------------------------


def matmul(a, b):
    """Product of two matrices given as lists of rows; zero entries are skipped."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * width
        for x, brow in zip(row, b):
            if not x:
                continue
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
        out.append(acc)
    return out


def principal(matrix, positions):
    """The principal submatrix on the given row and column positions."""
    return [[matrix[i][j] for j in positions] for i in positions]


def degree_one(algebra):
    """Positions of the degree-one basis monomials."""
    return [i for i, e in enumerate(algebra.basis) if sum(e) == 1]


def identity_point(endo):
    """Values of the unknowns at which the endomorphism is the identity.

    The unknown in slot (v, k) is the coefficient of basis monomial k in the
    image of v, so it is 1 exactly when that monomial is v itself.
    """
    alg = endo.algebra
    point = {}
    for name, (v, k) in endo.unknown_slots.items():
        exps = tuple(int(w == v) for w in alg.ring.vars)
        point[name] = Fraction(int(alg.basis[k] == exps))
    return point


def rank(rows):
    """Rank of a matrix of rationals, by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def numeric_product_check(endo, values):
    """What numeric_instantiate must return at values, from the definitions.

    Returns (matrix, failing pairs, is_homomorphism, is_automorphism). The
    unknown in slot (v, k) is the coefficient of basis monomial k in phi(v).
    phi of a basis monomial is the normal form of the product of its
    variables' images, one factor at a time; a pair (e_i, e_j) fails when
    the normal form of phi(e_i) * phi(e_j) differs from phi applied to the
    normal form of e_i * e_j. An automorphism is a homomorphism whose
    nil block has full rank.
    """
    alg = endo.algebra
    ring, basis, gb = alg.ring, alg.basis, alg.gb
    position = {e: k for k, e in enumerate(basis)}
    image = {v: ring.zero() for v in ring.vars}
    for name, (v, k) in endo.unknown_slots.items():
        image[v] = image[v] + ring.monomial(basis[k], Fraction(values[name]))
    phi = []
    for exps in basis:
        p = ring.one()
        for v, times in zip(ring.vars, exps):
            for _ in range(times):
                p = normal_form(p * image[v], gb)
        phi.append(p)

    def coords(p):
        return [Fraction(p.terms.get(e, 0)) for e in basis]

    names = alg.basis_names()
    failing = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            product = normal_form(ring.monomial(tuple(a + b for a, b in zip(basis[i], basis[j]))), gb)
            lhs = ring.zero()
            for e, c in product.terms.items():
                lhs = lhs + phi[position[e]] * c
            if coords(lhs) != coords(normal_form(phi[i] * phi[j], gb)):
                failing.append((names[i], names[j]))
    matrix = [coords(p) for p in phi]
    nil = alg.nil_indices
    invertible = rank(principal(matrix, nil)) == len(nil)
    return matrix, failing, not failing, not failing and invertible
