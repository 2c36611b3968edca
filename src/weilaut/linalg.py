"""Exact linear algebra helpers.

Works over any commutative domain whose elements support +, -, * and
truthiness for zero tests. Division is injected where needed so the same
routines serve Fraction, FieldElement and Polynomial entries.

The determinant reads the nonzero pattern before it eliminates: a row with
a single nonzero entry is expanded along (Laplace) and leaves with that
entry's column, so a matrix that is triangular up to a permutation of its
rows and columns needs no elimination at all. What no such row reaches is
eliminated as one block. The elimination is sparse too: a zero entry costs
a truth test and no arithmetic.
"""

from .scalar import field_div


class LinalgError(ArithmeticError):
    pass


def bareiss_determinant(rows, exact_div):
    """Exact determinant: singleton rows peeled, the rest by elimination.

    exact_div(a, b) must divide exactly. A row whose nonzero entries among
    the remaining columns are a single x, at position p among the remaining
    rows and q among the remaining columns, contributes (-1)^(p+q) * x, and
    it leaves with x's column. A row with no nonzero entry left makes the
    determinant the zero of the entry type. The rows and columns that no
    singleton reaches, in their order, take fraction-free elimination
    (_eliminate) as one block.
    """
    n = len(rows)
    if n == 0:
        raise LinalgError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise LinalgError("matrix is not square")
    pattern = [{j for j, x in enumerate(r) if x} for r in rows]
    live_rows, live_cols = list(range(n)), list(range(n))
    ready = [i for i in range(n) if len(pattern[i]) < 2]
    det, odd = None, False
    while ready:
        i = ready.pop()
        if not pattern[i]:
            return rows[0][0] - rows[0][0]
        (j,) = pattern[i]
        odd ^= (live_rows.index(i) + live_cols.index(j)) % 2 == 1
        live_rows.remove(i)
        live_cols.remove(j)
        det = rows[i][j] if det is None else det * rows[i][j]
        for k in live_rows:
            cols = pattern[k]
            if j in cols:
                cols.discard(j)
                if len(cols) == 1:
                    ready.append(k)
    if live_rows:
        d = _eliminate([[rows[i][j] for j in live_cols] for i in live_rows], exact_div)
        if not d:
            return d
        det = d if det is None else det * d
    return -det if odd else det


def _eliminate(m, exact_div):
    """Fraction-free determinant (Bareiss, Math. Comp. 22, 1968) of m, in place.

    Step k sets each entry below and right of the pivot p to
    (a*p - f*b) / prev, f the row's entry in column k, b the pivot row's in
    column j and prev the previous pivot. The product f*b is skipped when
    either factor is zero, an entry that is zero and gets no such product
    stays zero with no arithmetic, and a zero numerator is never divided. A
    nonzero entry of a row whose f is zero is still scaled to a*p / prev:
    after step k, entry (i, j) is the minor on rows 0..k, i and columns
    0..k, j, whatever f is. A zero pivot takes a row swap.
    """
    n = len(m)
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
                return m[0][0] - m[0][0]
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
