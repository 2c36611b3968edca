"""Symbolic endomorphisms with unknown coefficients.

A generic endomorphism maps each algebra variable to a combination of the
nilpotent basis monomials with one fresh unknown per coordinate; extending it
multiplicatively and reducing by normal forms produces the matrix of the map
and the polynomial constraints characterizing homomorphisms. The same
structure-constant products drive fully numeric instantiation, which serves
as the independent ground truth for every derived equation. That check runs
on Python ints: the images and the structure constants are cleared of
denominators once, and invertibility is a fraction-free Bareiss determinant
of the nil block.
"""

from fractions import Fraction
from math import comb, lcm
from operator import floordiv

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
        ring = self.ring
        return _monomial_image(
            self.algebra, self.images, tuple(exps), ring.zero(), ring.one(), self._monomial_cache
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


def _monomial_image(algebra, images, exps, zero, one, cache):
    """Coordinates of phi(monomial), phi given by the images of the variables.

    phi is extended multiplicatively by peeling one variable off the
    monomial. zero and one are the coordinates' own, so the same recursion
    serves symbolic and numeric endomorphisms; cache maps exponents to
    coordinates already computed.
    """
    coords = cache.get(exps)
    if coords is not None:
        return coords
    if not any(exps):
        coords = [zero] * algebra.dim
        coords[0] = one
    else:
        i = next(k for k, e in enumerate(exps) if e)
        prev = list(exps)
        prev[i] -= 1
        base = _monomial_image(algebra, images, tuple(prev), zero, one, cache)
        coords = structure_product(algebra, base, images[algebra.ring.vars[i]], zero)
    cache[exps] = coords
    return coords


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
    __slots__ = ("ring", "entries", "labels")

    def __init__(self, ring, entries, labels):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise EndoError("matrix is not square")
        if len(labels) != n:
            raise EndoError("label count differs from size")
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.labels = list(labels)

    def det(self, pieces=None):
        """Exact determinant, 1 for the empty matrix.

        pieces, when given, must be algebra.graded_pieces() and the matrix
        the nil block of an endomorphism of that algebra (extend_to_matrix).
        The matrix is then checked to be block upper-triangular along the
        pieces, and its determinant is the product of the diagonal blocks'.
        A piece d of full size C(n+d-1, d), n = len(pieces[0]), is
        Sym^d(m/m^2), so its block's determinant is det(M1) to the power
        symmetric_power_exponent(n, d); only the other pieces take Bareiss.
        """
        if not self.entries:
            return self.ring.one()
        if pieces is None:
            return bareiss_determinant(self.entries, Polynomial.exact_div)
        check_block_triangular(self.entries, pieces)
        n = len(pieces[0])
        power = 0
        rest = self.ring.one()
        for d, piece in enumerate(pieces, start=1):
            if len(piece) == comb(n + d - 1, d):
                power += symmetric_power_exponent(n, d)
            else:
                rest = rest * self.block(piece).det()
        return self.block(pieces[0]).det() ** power * rest

    def block(self, positions):
        """The principal submatrix on the given positions."""
        return SymbolicMatrix(
            self.ring,
            [[self.entries[i][j] for j in positions] for i in positions],
            [self.labels[i] for i in positions],
        )

    def diagonal(self):
        return [self.entries[i][i] for i in range(len(self.entries))]


def extend_to_matrix(endo):
    """Matrix of phi on the nilpotent part, rows indexed by basis monomials."""
    alg = endo.algebra
    nil = alg.nil_indices
    labels = [alg.ring.monomial_str(alg.basis[i]) for i in nil]
    rows = []
    for i in nil:
        coords = endo.image_of_monomial(alg.basis[i])
        if coords[0]:
            raise EndoError("image of a nilpotent left the nilradical")
        rows.append([coords[j] for j in nil])
    return SymbolicMatrix(endo.ring, rows, labels)


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
    return SymbolicMatrix(matrix.ring, entries, matrix.labels)


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
    the same recursion as the symbolic images. Each pair is compared with
    both sides scaled to (Q*D)^m, m the largest degree involved, and the
    nil block is tested by a fraction-free Bareiss determinant.
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
    rows = [_monomial_image(integral, images, e, 0, 1, cache) for e in alg.basis]
    degree = [sum(e) for e in alg.basis]
    scale = [1]  # powers of Q*D
    for _ in range(2 * max(degree)):
        scale.append(scale[-1] * (q * d))

    failing = []
    table = integral.structure_pairs
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            # Q*(Q*D)^m times each side of phi(e_i * e_j) = phi(e_i) * phi(e_j)
            pairs = table[i][j]
            m = max([degree[i] + degree[j]] + [degree[k] for k, _ in pairs])
            lhs = [0] * alg.dim
            for k, c in pairs:
                f = c * scale[m - degree[k]]
                lhs = [a + f * x for a, x in zip(lhs, rows[k])]
            rhs = structure_product(integral, rows[i], rows[j], 0)
            f = scale[m - degree[i] - degree[j]]
            if lhs != (rhs if f == 1 else [f * x for x in rhs]):
                failing.append((alg.ring.monomial_str(alg.basis[i]), alg.ring.monomial_str(alg.basis[j])))
    out = NumericEndo.__new__(NumericEndo)
    out.algebra = alg
    out._rows = rows
    out._scales = [scale[t] for t in degree]
    out._matrix = None
    out.is_homomorphism = not failing
    out.failing_pairs = failing
    nil = alg.nil_indices
    out.is_automorphism = out.is_homomorphism and (
        not nil or bareiss_determinant([[rows[i][j] for j in nil] for i in nil], floordiv) != 0
    )
    return out
