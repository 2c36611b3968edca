"""Symbolic endomorphisms with unknown coefficients.

A generic endomorphism maps each algebra variable to a combination of the
nilpotent basis monomials with one fresh unknown per coordinate; extending it
multiplicatively and reducing by normal forms produces the matrix of the map
and the polynomial constraints characterizing homomorphisms. The same
structure-constant products drive fully numeric instantiation, which serves
as the independent ground truth for every derived equation. That check runs
on Python ints: the images and the structure constants are cleared of
denominators once, and invertibility is a fraction-free Bareiss determinant
of the nil block. Both sides of phi(e_i * e_j) = phi(e_i) * phi(e_j) depend
only on the product monomial e_i * e_j, so the pairs that share one are
compared once (product_groups). The report's determinants read only the
blocks of the matrix along the graded pieces and below them, so their
images are extended through products truncated at those pieces
(graded_plan).
"""

from fractions import Fraction
from math import comb, lcm
from operator import add, floordiv

from .scalar import QQ
from .poly import PolyRing, Polynomial
from .weil import integral_copy, structure_product
# rref is unused here but stays importable: bench/tracer.py patches endo.rref
from .linalg import bareiss_determinant, check_block_triangular, rref  # noqa: F401


class EndoError(ValueError):
    pass


def unknown_names(count, taken=()):
    """A, B, C, ... skipping O and any taken names; A1, B1, ... afterwards."""
    letters = [chr(ord("A") + i) for i in range(26) if chr(ord("A") + i) != "O"]
    out = []
    suffix = 0
    while len(out) < count:
        for letter in letters:
            name = letter + (str(suffix) if suffix else "")
            if name in taken:
                continue
            out.append(name)
            if len(out) == count:
                break
        suffix += 1
    return out


class SymbolicEndo:
    __slots__ = ("algebra", "ring", "unknowns", "images", "unknown_slots", "_monomial_cache")

    def __init__(self, algebra, ring, unknowns, images, unknown_slots=None):
        self.algebra = algebra
        self.ring = ring
        self.unknowns = tuple(unknowns)
        self.images = {v: list(coords) for v, coords in images.items()}
        self.unknown_slots = dict(unknown_slots or {})
        self._monomial_cache = {}
        for v, coords in self.images.items():
            if len(coords) != algebra.dim:
                raise EndoError("image of %s has wrong length" % v)
            if coords[0]:
                raise EndoError("image of %s has a nonzero unit coordinate" % v)

    def image_of_monomial(self, exps):
        """Coordinates of the image of a basis monomial, phi extended multiplicatively."""
        alg, ring = self.algebra, self.ring
        return _monomial_image(
            alg.structure_pairs, alg.ring.vars, self.images, tuple(exps),
            ring.zero(), ring.one(), self._monomial_cache,
        )

    def image_of_polynomial(self, p):
        """Image coordinates of an algebra polynomial (not reduced beforehand)."""
        alg = self.algebra
        zero = self.ring.zero()
        acc = [zero] * alg.dim
        for exps, c in p.terms.items():
            coords = self.image_of_monomial(exps)
            acc = [a + x * c for a, x in zip(acc, coords)]
        return acc


def _monomial_image(table, variables, images, exps, zero, one, cache, plan=None):
    """Coordinates of phi(monomial), phi given by the images of the variables.

    phi is extended multiplicatively by peeling one variable off the
    monomial (_peel), and each product is structure_product over table.
    zero and one are the coordinates' own, so the same recursion serves
    symbolic and numeric endomorphisms; cache maps exponents to
    coordinates already computed. plan, when given, maps each monomial to
    the table whose product builds its image from the peeled one's
    (graded_plan); otherwise that is table, and every coordinate is
    computed.
    """
    coords = cache.get(exps)
    if coords is not None:
        return coords
    if not any(exps):
        coords = [zero] * len(table)
        coords[0] = one
    else:
        i, prev = _peel(exps)
        base = _monomial_image(table, variables, images, prev, zero, one, cache, plan)
        product = table if plan is None else plan[exps]
        coords = structure_product(product, base, images[variables[i]], zero)
    cache[exps] = coords
    return coords


def _peel(exps):
    """(i, prev): the monomial is variable i times prev, i its first variable."""
    i = next(k for k, e in enumerate(exps) if e)
    return i, exps[:i] + (exps[i] - 1,) + exps[i + 1:]


def graded_plan(algebra):
    """The precision plan of extend_to_matrix's graded matrix.

    _monomial_image builds phi(c) as phi(prev) * phi(x), x the variable
    peeled off c (_peel). The plan maps each nil basis monomial c to the
    structure table whose product keeps only the coordinates in the graded
    pieces <= need(c):
      - a nil basis monomial b is needed in pieces <= piece(b), the
        columns of its row's diagonal and lower blocks;
      - each monomial before it on its peel chain is needed in one piece
        fewer, need(prev) = max(need(prev), need(c) - 1): phi(x) lies in
        m, so the product's coordinates in piece N read phi(prev) in
        pieces < N only;
      - e_i * e_j has no term below piece(i) + piece(j), so the product
        reads phi(x) in pieces <= need(c) - piece(i) only; for an
        endomorphism phi(prev) lies in m^piece(prev), and this is
        need(c) - piece(prev).
    Every kept coordinate is exact, whatever the images. Truncating each
    image at its own piece instead is wrong wherever a monomial lies
    deeper than its degree, as the cusp's X^2 = Y^3 lies in m^3: the
    monomials before it on its peel chain are needed deeper than their
    own pieces. Built on first use and cached on the algebra.
    """
    if algebra._graded_plan is None:
        piece = algebra.piece
        need = {algebra.basis[k]: piece[k] for k in range(1, algebra.dim)}
        # a monomial's need is final once every monomial of the next degree
        # has passed its own on
        for c in sorted(need, key=sum, reverse=True):
            prev = _peel(c)[1]
            if any(prev):
                need[prev] = max(need[prev], need[c] - 1)
        tables = {n: _truncated(algebra.structure_pairs, piece, n) for n in set(need.values())}
        algebra._graded_plan = {c: tables[n] for c, n in need.items()}
    return algebra._graded_plan


def _truncated(table, piece, n):
    """table, its products' terms in pieces deeper than n dropped.

    piece[k] is the graded piece of basis monomial k, 0 for the unit.
    """
    if n >= max(piece):
        return table
    out = []
    for row in table:
        kept = []
        for j, pairs in row:
            terms = tuple((k, c) for k, c in pairs if piece[k] <= n)
            if terms:
                kept.append((j, terms))
        out.append(tuple(kept))
    return tuple(out)


def generic_endo(algebra):
    nvars = len(algebra.ring.vars)
    m = algebra.dim - 1
    taken = set(algebra.ring.vars)
    names = unknown_names(nvars * m, taken)
    ring = PolyRing(tuple(names), QQ)
    images = {}
    slots = {}
    for i, v in enumerate(algebra.ring.vars):
        coords = [ring.zero()]
        for j in range(m):
            name = names[i * m + j]
            coords.append(ring.var(name))
            slots[name] = (v, j + 1)
        images[v] = coords
    return SymbolicEndo(algebra, ring, names, images, slots)


def symmetric_power_exponent(n, d):
    """k with det Sym^d(L) = det(L)^k for every linear map L of an n-space.

    k = d*N/n with N = C(n+d-1, d) = dim Sym^d, which is C(n+d-1, d-1).
    """
    return comb(n + d - 1, d - 1)


class SymbolicMatrix:
    """A square matrix of polynomials over ring, its rows labelled.

    pieces, when given, are algebra.graded_pieces() and the matrix is the
    nil block of an endomorphism of that algebra (extend_to_matrix); det
    then reads the matrix along them.
    """

    __slots__ = ("ring", "entries", "labels", "pieces")

    def __init__(self, ring, entries, labels, pieces=None):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise EndoError("matrix is not square")
        if len(labels) != n:
            raise EndoError("label count differs from size")
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.labels = list(labels)
        self.pieces = pieces

    def det(self):
        """Exact determinant, 1 for the empty matrix.

        A matrix with no pieces takes bareiss_determinant whole. A nil
        block with its pieces is checked to be block upper-triangular along
        them, and its determinant is the product of the diagonal blocks'.
        A piece d of full size C(n+d-1, d), n = len(pieces[0]), is
        Sym^d(m/m^2), so its block's determinant is det(M1) to the power
        symmetric_power_exponent(n, d); only the other pieces and M1 take
        bareiss_determinant, which peels the rows of each block that hold
        a single nonzero entry and eliminates only what remains. Only the
        diagonal and lower blocks are read, so the matrix may be
        extend_to_matrix's graded one.
        """
        if not self.entries:
            return self.ring.one()
        pieces = self.pieces
        if pieces is None:
            return bareiss_determinant(self.entries, Polynomial.exact_div)
        check_block_triangular(self.entries, pieces)
        n = len(pieces[0])
        power = 0
        rest = None  # the product of the Bareiss pieces' determinants
        for d, piece in enumerate(pieces, start=1):
            if len(piece) == comb(n + d - 1, d):
                power += symmetric_power_exponent(n, d)
            else:
                det = self.block(piece).det()
                rest = det if rest is None else rest * det
        out = self.block(pieces[0]).det() ** power
        return out if rest is None else out * rest

    def block(self, positions):
        """The principal submatrix on the given positions, with no pieces."""
        return SymbolicMatrix(
            self.ring,
            [[self.entries[i][j] for j in positions] for i in positions],
            [self.labels[i] for i in positions],
        )

    def diagonal(self):
        return [self.entries[i][i] for i in range(len(self.entries))]


def extend_to_matrix(endo, graded=False):
    """Matrix of phi on the nilpotent part, rows indexed by basis monomials.

    The matrix carries algebra.graded_pieces(), and its det reads it
    along them. With graded, the matrix is the associated graded map's with the
    blocks below it: row b holds phi(b)'s coordinates in the pieces
    <= piece(b), computed exactly (graded_plan), and zeros in the columns
    of deeper pieces. Those are the entries SymbolicMatrix.det and
    diagonal() read. Otherwise every image is full.
    """
    alg = endo.algebra
    nil = range(1, alg.dim)
    labels = [alg.ring.monomial_str(alg.basis[i]) for i in nil]
    zero = endo.ring.zero()
    if graded:
        plan = graded_plan(alg)
        table, variables, one, cache = alg.structure_pairs, alg.ring.vars, endo.ring.one(), {}
        images = [
            _monomial_image(table, variables, endo.images, alg.basis[i], zero, one, cache, plan) for i in nil
        ]
    else:
        images = [endo.image_of_monomial(alg.basis[i]) for i in nil]
    piece = alg.piece
    rows = []
    for i, coords in zip(nil, images):
        if coords[0]:
            raise EndoError("image of a nilpotent left the nilradical")
        # a row on the peel chain of a deeper monomial holds coordinates
        # beyond its own piece too; the graded matrix drops them
        rows.append([coords[j] if not graded or piece[j] <= piece[i] else zero for j in nil])
    return SymbolicMatrix(endo.ring, rows, labels, alg.graded_pieces())


def linear_matrix(endo):
    """Matrix of phi on n/n^2 (coordinates at the degree-one basis)."""
    alg = endo.algebra
    deg1 = alg.degree_one_indices()
    labels = [alg.ring.monomial_str(alg.basis[i]) for i in deg1]
    rows = []
    for i in deg1:
        coords = endo.image_of_monomial(alg.basis[i])
        rows.append([coords[j] for j in deg1])
    return SymbolicMatrix(endo.ring, rows, labels)


class ConstraintSystem:
    __slots__ = ("ring", "equations", "nondegeneracy", "provenance", "unknowns")

    def __init__(self, ring, equations, nondegeneracy, provenance, unknowns):
        self.ring = ring
        self.equations = list(equations)
        self.nondegeneracy = list(nondegeneracy)
        self.provenance = list(provenance)
        self.unknowns = tuple(unknowns)


def relation_label(g):
    """Stable display form of a relation, independent of the ring precedence."""
    plain = PolyRing(g.ring.vars, g.ring.domain)
    return repr(Polynomial(plain, g.terms))


def constraint_system(endo):
    """Equations forcing phi to kill every relation, plus invertibility."""
    alg = endo.algebra
    equations = []
    provenance = []
    for g in alg.spec.relations:
        coords = endo.image_of_polynomial(g)
        if coords[0]:
            raise EndoError("relation image has a unit coordinate")
        label = relation_label(g)
        for k in range(1, alg.dim):
            if coords[k]:
                equations.append(coords[k])
                provenance.append((label, alg.ring.monomial_str(alg.basis[k])))
    det1 = linear_matrix(endo).det()
    return ConstraintSystem(endo.ring, equations, [det1], provenance, endo.unknowns)


def resolve_bindings(ring, bindings):
    """Close an acyclic binding set so no bound symbol remains on any rhs."""
    bnd = {}
    for k, v in bindings.items():
        if k not in ring.index:
            raise EndoError("unknown symbol %r in bindings" % k)
        bnd[k] = ring.coerce(v)
    resolved = {}
    for k in bnd:
        _resolve(k, bnd, resolved, [])
    return resolved


def _resolve(name, bnd, resolved, visiting):
    # a module-level function, not a closure: a closure that calls itself
    # is a reference cycle, which kept every binding alive until the next
    # garbage collection
    if name in resolved:
        return resolved[name]
    if name in visiting:
        raise EndoError("cyclic bindings through %s" % " -> ".join(visiting + [name]))
    visiting.append(name)
    p = bnd[name]
    deps = {v for v in p.vars_used() if v in bnd}
    if deps:
        p = p.substitute({v: _resolve(v, bnd, resolved, visiting) for v in deps})
    visiting.pop()
    resolved[name] = p
    return p


def specialize(endo, ring, bindings):
    """endo over ring (the same variables, a field containing endo's), with
    the bindings substituted into its variable images.

    Substitution is a ring homomorphism, so extending the specialized images
    gives the substituted matrix of endo, entry for entry. With nothing
    bound and nothing to lift this is endo itself, whose images are
    already extended.
    """
    images = endo.images
    if ring is not endo.ring:
        images = {v: [ring.lift(p) for p in coords] for v, coords in images.items()}
    elif not bindings:
        return endo
    closed = resolve_bindings(ring, bindings)
    images = {v: [p.substitute(closed) for p in coords] for v, coords in images.items()}
    return SymbolicEndo(endo.algebra, ring, endo.unknowns, images, endo.unknown_slots)


def substitute(matrix, bindings):
    """Simultaneous substitution of the bindings into every matrix entry."""
    closed = resolve_bindings(matrix.ring, bindings)
    entries = [[p.substitute(closed) for p in row] for row in matrix.entries]
    return SymbolicMatrix(matrix.ring, entries, matrix.labels, matrix.pieces)


class NumericEndo:
    __slots__ = (
        "algebra", "is_homomorphism", "is_automorphism", "failing_pairs", "_rows", "_scales", "_matrix"
    )

    @property
    def matrix(self):
        """Fraction coordinates of the image of every basis monomial.

        Built on first read from the integer rows and their scales: the
        product check itself never needs them.
        """
        if self._matrix is None:
            self._matrix = [[Fraction(x, s) for x in row] for row, s in zip(self._rows, self._scales)]
        return self._matrix


def product_groups(algebra):
    """The basis pairs (i, j), i <= j, grouped by their product monomial.

    One (i, j, terms, m, pairs) per distinct exponent sum b of e_i and e_j:
    (i, j) is the group's first pair, terms the integral table entry of
    e_i * e_j (integral_copy; the normal form of x^b, so the same for every
    pair of the group), m the largest degree among b and the terms' basis
    monomials, and pairs every pair of the group in order. Built on first
    use and cached on the algebra.
    """
    if algebra._product_groups is None:
        basis = algebra.basis
        degree = [sum(e) for e in basis]
        groups = {}
        for i, row in enumerate(map(dict, integral_copy(algebra)[1])):
            for j in range(i, algebra.dim):
                b = tuple(map(add, basis[i], basis[j]))
                group = groups.get(b)
                if group is None:
                    terms = row.get(j, ())
                    m = max([degree[i] + degree[j]] + [degree[k] for k, _ in terms])
                    group = groups[b] = (i, j, terms, m, [])
                group[4].append((i, j))
        algebra._product_groups = tuple(groups.values())
    return algebra._product_groups


def numeric_instantiate(endo, values):
    """Instantiate every unknown and test multiplicativity from scratch.

    values maps each unknown to a rational number, an int or a Fraction;
    anything else (a FieldElement, a float) is an EndoError. matrix holds
    the Fraction coordinates of the image of every basis monomial, built
    when it is first read. The map
    is a homomorphism when phi(e_i * e_j) = phi(e_i) * phi(e_j) for every
    pair of basis elements (failing_pairs lists the others, in order), and
    an automorphism when it is also bijective on the nilradical.

    The work is done in Python ints. The variable images are cleared to a
    common denominator D and the structure constants to Q (integral_copy),
    so the row of a degree-d basis monomial e is (Q*D)^d * phi(e), built by
    the same recursion as the symbolic images. Both sides of a pair depend
    only on its product monomial x^b: the left side is phi of the normal
    form of x^b, and the right side is phi(x^b), since the rows are the
    images of the basis monomials and the algebra is commutative and
    associative. So each group of product_groups is compared once, through
    its first pair, with both sides scaled to (Q*D)^m, m the largest degree
    involved; a failing group fails every one of its pairs. The nil block
    is tested by a fraction-free Bareiss determinant.
    """
    alg = endo.algebra
    missing = [u for u in endo.unknowns if u not in values]
    if missing:
        raise EndoError("unbound unknowns: %s" % ", ".join(missing))
    for u in endo.unknowns:
        if not isinstance(values[u], (int, Fraction)):
            raise EndoError("value of %s is not rational: %r" % (u, values[u]))
    rational = {v: [c.evaluate(values) if c else 0 for c in coords] for v, coords in endo.images.items()}
    d = lcm(*(x.denominator for coords in rational.values() for x in coords))
    images = {
        v: [x.numerator * (d // x.denominator) for x in coords] for v, coords in rational.items()
    }
    q, integral = integral_copy(alg)
    cache = {}
    rows = [_monomial_image(integral, alg.ring.vars, images, e, 0, 1, cache) for e in alg.basis]
    degree = [sum(e) for e in alg.basis]
    scale = [1]  # powers of Q*D
    for _ in range(2 * max(degree)):
        scale.append(scale[-1] * (q * d))

    failing = []
    for i, j, terms, m, pairs in product_groups(alg):
        # Q*(Q*D)^m times each side of phi(e_i * e_j) = phi(e_i) * phi(e_j)
        lhs = [0] * alg.dim
        for k, c in terms:
            f = c * scale[m - degree[k]]
            lhs = [a + f * x for a, x in zip(lhs, rows[k])]
        rhs = structure_product(integral, rows[i], rows[j], 0)
        f = scale[m - degree[i] - degree[j]]
        if lhs != (rhs if f == 1 else [f * x for x in rhs]):
            failing.extend(pairs)
    if failing:
        names = alg.basis_names()
        failing = [(names[i], names[j]) for i, j in sorted(failing)]
    out = NumericEndo.__new__(NumericEndo)
    out.algebra = alg
    out._rows = rows
    out._scales = [scale[t] for t in degree]
    out._matrix = None
    out.is_homomorphism = not failing
    out.failing_pairs = failing
    nil = range(1, alg.dim)
    out.is_automorphism = out.is_homomorphism and (
        not nil or bareiss_determinant([[rows[i][j] for j in nil] for i in nil], floordiv) != 0
    )
    return out
