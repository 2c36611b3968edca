"""Independent cross-checks used by the test suite.

Everything here is deliberately written from scratch against the underlying
definitions (permutation expansion, Macaulay-style dense elimination), not by
calling back into the package, so a bug in the library cannot hide behind the
same bug in its check.
"""

from fractions import Fraction
from itertools import permutations


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
    """Product of two matrices given as lists of rows."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


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
