"""Exact linear algebra helpers.

Works over any commutative domain whose elements support +, -, * and
truthiness for zero tests. Division is injected where needed so the same
routines serve Fraction, FieldElement and Polynomial entries.

The determinant kernel is sparse: a zero entry costs a truth test and no
arithmetic, so a monomial matrix (one nonzero per row) is eliminated with
no product or division of a zero.
"""

from .scalar import field_div


class LinalgError(ArithmeticError):
    pass


def bareiss_determinant(rows, exact_div):
    """Fraction-free determinant (Bareiss, Math. Comp. 22, 1968).

    exact_div(a, b) must divide exactly. Step k sets each entry below and
    right of the pivot p to (a*p - f*b) / prev, f the row's entry in column
    k, b the pivot row's in column j and prev the previous pivot. The
    product f*b is skipped when either factor is zero, an entry that is
    zero and gets no such product stays zero with no arithmetic, and a zero
    numerator is never divided. A nonzero entry of a row whose f is zero is
    still scaled to a*p / prev: after step k, entry (i, j) is the minor on
    rows 0..k, i and columns 0..k, j, whatever f is.
    """
    n = len(rows)
    if n == 0:
        raise LinalgError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise LinalgError("matrix is not square")
    m = [list(r) for r in rows]
    zero = m[0][0] - m[0][0]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                a = row[j]
                b = pivot_row[j] if f else None
                if b:
                    num = a * pivot - f * b if a else -(f * b)
                elif a:
                    num = a * pivot
                else:
                    continue
                row[j] = exact_div(num, prev) if num and prev is not None else num
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def check_block_triangular(rows, blocks):
    """Raise LinalgError unless rows is block upper-triangular along blocks.

    blocks must partition the row/column positions into pieces 1, 2, ...,
    and every entry in a row of piece d and a column of a piece before d
    must be zero. Every entry is checked, by an explicit raise rather than
    an assert, so the check also holds under python -O.
    """
    n = len(rows)
    if n == 0:
        raise LinalgError("empty matrix")
    piece = [None] * n
    for d, block in enumerate(blocks):
        for i in block:
            if piece[i] is not None:
                raise LinalgError("position %d lies in two blocks" % i)
            piece[i] = d
    if None in piece:
        raise LinalgError("the blocks do not cover the matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LinalgError("matrix is not square")
        for j, x in enumerate(row):
            if x and piece[j] < piece[i]:
                raise LinalgError(
                    "entry (%d, %d) breaks block triangularity" % (i, j)
                )


def rref(rows):
    """Reduced row echelon form over a field. Returns (new rows, pivot cols)."""
    if not rows:
        return [], []
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field_div(1, m[r][c])
        inv_row = [x * inv for x in m[r]]
        m[r] = inv_row
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], inv_row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots
