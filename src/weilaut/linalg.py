"""Exact linear algebra helpers.

Works over any commutative domain whose elements support +, -, * and
truthiness for zero tests. Division is injected where needed so the same
routines serve Fraction, FieldElement and Polynomial entries.

The determinant reads the nonzero pattern before it eliminates. A perfect
matching of rows to columns (augmenting paths) puts nonzero entries on the
diagonal, or shows the determinant is 0 with no arithmetic; the strongly
connected components of the pattern (Tarjan) then give the fine
block-triangular form (Dulmage-Mendelsohn), and only blocks larger than
1 x 1 are eliminated. The elimination is sparse too: a zero entry costs a
truth test and no arithmetic.
"""

from .scalar import field_div


class LinalgError(ArithmeticError):
    pass


def bareiss_determinant(rows, exact_div):
    """Exact determinant from the fine block-triangular form.

    exact_div(a, b) must divide exactly. When no perfect matching of rows
    to columns runs along nonzero entries, the determinant is the zero of
    the entry type. Otherwise, with the columns permuted so the matching
    lies on the diagonal, the matrix is block triangular along the strongly
    connected components of its pattern (an edge i -> k for each nonzero
    entry (i, k)), and the determinant is the permutation's sign times the
    product of the components' blocks' determinants: a 1 x 1 block is its
    entry, a larger one takes fraction-free elimination (_eliminate).
    """
    n = len(rows)
    if n == 0:
        raise LinalgError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise LinalgError("matrix is not square")
    pattern = [[j for j, x in enumerate(r) if x] for r in rows]
    match = _perfect_matching(pattern)
    if match is None:
        return rows[0][0] - rows[0][0]
    owner = [0] * n  # owner[j]: the row matched to column j
    for i, j in enumerate(match):
        owner[j] = i
    det = None
    for block in _strong_components([[owner[j] for j in cols] for cols in pattern]):
        if len(block) == 1:
            i = block[0]
            d = rows[i][match[i]]
        else:
            block.sort()
            d = _eliminate([[rows[i][match[k]] for k in block] for i in block], exact_div)
            if not d:
                return d
        det = d if det is None else det * d
    return det if _permutation_sign(match) == 1 else -det


def _perfect_matching(pattern):
    """The column matched to each row, or None without a perfect matching.

    pattern[i] lists the columns of row i's nonzero entries, in ascending
    order. Rows are matched in order, each by an augmenting path found by a
    search that visits each column once (Kuhn's algorithm gives a maximum
    matching); when a row has none, no perfect matching exists. A matrix
    whose diagonal has no zero entry gets the identity: row i's scan meets
    columns below i taken and column i free.
    """
    n = len(pattern)
    match = [None] * n
    owner = [None] * n
    for root in range(n):
        reached_from = [None] * n  # the row whose search reached column j
        stack = [root]
        end = None
        while stack and end is None:
            i = stack.pop()
            for j in pattern[i]:
                if reached_from[j] is None:
                    reached_from[j] = i
                    if owner[j] is None:
                        end = j
                        break
                    stack.append(owner[j])
        if end is None:
            return None
        j = end
        while j is not None:
            i = reached_from[j]
            match[i], j = j, match[i]
            owner[match[i]] = i
    return match


def _strong_components(succ):
    """The strongly connected components of the graph i -> succ[i].

    Tarjan's algorithm (SIAM J. Comput. 1, 1972), iterative: the stack
    holds each open node with the iterator over its successors, so nothing
    calls itself.
    """
    n = len(succ)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    out = []
    count = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] is None:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    out.append(component)
    return out


def _permutation_sign(p):
    """+1 or -1, the sign of the permutation i -> p[i]."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = p[i]
        seen[i] = True
        while j != i:
            seen[j] = True
            sign = -sign
            j = p[j]
    return sign


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
