"""Case-splitting solver for automorphism constraint systems.

A branch carries the residual equations, the accumulated bindings, and the
nonzero hypotheses (guards) introduced by case splits. Deterministic rules
shrink a branch (substituting forced bindings); splitting rules fan out into
complementary subcases, each described by a spec (path atoms, guards,
bindings) that _child turns into a branch. _child substitutes the bindings
into the invertibility polynomial first, so a child on which it vanishes
dies at birth: solve() records it as a contradiction and never queues it or
charges it to the branch budget. The first split rule takes a clique of
products (u*v = 0 for every two unknowns of a set S) apart in one step,
into one child per unknown of S left nonzero and one with all of S zero;
the content split would take |S| - 1 levels. A branch's guards are one dict
keyed by rendering, so a repeated hypothesis is recorded once. The finite
split and close_branch, which finishes small residual systems, take the real
values of one unknown from one routine, _real_values: it eliminates a second
unknown by a resultant and finds the real roots of the gcd exactly, on the
coefficient lists of scalar.py's univariate kernel. Inside solve(),
close_branch only labels a residual, since the finite split has just failed
on every plan it could finish; its finishing serves direct callers, such as
acceptance criterion 3's beta branch. Guards arise only from split
complements, never from the invertibility requirement, which instead kills a
branch outright when it collapses to zero.
"""

from functools import cmp_to_key, reduce
from math import lcm
from operator import itemgetter

from .scalar import QQ, ExtensionField, FieldElement, eval_rational, field_div
from .scalar import _ugcd_monic, kth_root_in_field, sign_of, sturm_count
from .poly import Polynomial, PolyError, PolyRing, resultant, univariate_coeffs

NONDEG_VANISHED = "nondegeneracy-vanished"
INCONSISTENT = "inconsistent-constants"
NO_REAL_SOLUTION = "no-real-solution"
# the reason of every residual left queued when the branch budget runs out
BUDGET_EXHAUSTED = "branch budget exhausted"
_NONDEG_DETAIL = "the invertibility determinant vanished identically"

BRANCH_BUDGET = 512
# the default limit on how many splits lead from the root to a branch
MAX_DEPTH = 24
ROOT_BOUND = 10 ** 6


class SolverError(Exception):
    pass


class ContradictionSignal(Exception):
    def __init__(self, reason, detail):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


class Branch:
    __slots__ = ("ring", "equations", "nondeg", "bindings", "guards", "path", "splits")

    def __init__(self, ring, equations, nondeg, bindings, guards, path, splits):
        self.ring = ring
        self.equations = list(equations)
        self.nondeg = nondeg
        self.bindings = dict(bindings)
        # the hypotheses g != 0, keyed by rendering, in the order they arose
        self.guards = {repr(g): g for g in guards}
        self.path = tuple(path)
        self.splits = splits

    def guard_vars(self):
        return _split_guards(self.guards.values())[0]

    def copy(self):
        out = Branch(self.ring, self.equations, self.nondeg, self.bindings, (), self.path, self.splits)
        out.guards = dict(self.guards)
        return out


def _split_guards(guards):
    """The variables guarded on their own (a guard that is a monomial in one
    variable), and the other guards."""
    names, rest = set(), []
    for g in guards:
        vs = g.vars_used()
        if len(g.terms) == 1 and len(vs) == 1:
            names |= vs
        else:
            rest.append(g)
    return names, rest


class SolutionFamily:
    __slots__ = ("path", "ring", "bindings", "free", "nonzero", "conditions", "nondeg_value")

    def __init__(self, path, ring, bindings, free, nonzero, conditions, nondeg_value):
        self.path = tuple(path)
        self.ring = ring
        self.bindings = dict(bindings)
        self.free = tuple(free)
        self.nonzero = tuple(nonzero)
        self.conditions = tuple(conditions)
        self.nondeg_value = nondeg_value


class Contradiction:
    __slots__ = ("path", "reason", "detail")

    def __init__(self, path, reason, detail):
        self.path = tuple(path)
        self.reason = reason
        self.detail = detail


class Residual:
    __slots__ = ("path", "reason", "equations", "bindings", "guards")

    def __init__(self, path, reason, equations, bindings, guards):
        self.path = tuple(path)
        self.reason = reason
        self.equations = list(equations)
        self.bindings = dict(bindings)
        self.guards = list(guards)


class SolveResult:
    __slots__ = ("families", "contradictions", "residuals")

    def __init__(self, families, contradictions, residuals):
        self.families = families
        self.contradictions = contradictions
        self.residuals = residuals

    def closed(self):
        return not self.residuals


def _strip_guarded_content(p, guard_vars):
    """p divided by the largest monomial in the guarded variables dividing it."""
    strip = None
    for v in p.vars_used():
        if v not in guard_vars:
            continue
        i = p.ring.index[v]
        k = min(map(itemgetter(i), p.terms))
        if k:
            if strip is None:
                strip = [0] * len(p.ring.vars)
            strip[i] = k
    return p if strip is None else p.divide_monomial(tuple(strip))


def _normalized_equations(equations, guard_vars):
    """Nonzero equations with guarded content stripped, made primitive, without
    repeats, sorted by (total degree, number of terms, rendering). The
    degree and the rendering are cached on each polynomial, and most
    equations are the same objects as one step earlier."""
    kept = {}
    for p in equations:
        if p.is_zero():
            continue
        q = _strip_guarded_content(p, guard_vars)
        if q.is_constant():
            raise ContradictionSignal(
                INCONSISTENT, "equation %r reduces to the nonzero constant %r" % (p, q)
            )
        q = q.primitive()
        r = repr(q)
        if r not in kept:
            kept[r] = ((q.total_degree(), len(q.terms), r), q)
    # equal renderings are kept once, so no two keys tie
    return [q for _, q in sorted(kept.values(), key=itemgetter(0))]


def _push_guard(g, guards):
    """Record the hypothesis g != 0 in guards, a dict keyed by rendering,
    factored into variables where possible."""
    if g.is_zero():
        raise ContradictionSignal(INCONSISTENT, "a nonzero hypothesis vanished")
    if g.is_constant():
        return
    ce = g.content_exps()
    for i, e in enumerate(ce):
        if e:
            v = g.ring.var(g.ring.vars[i])
            guards.setdefault(repr(v), v)
    if any(ce):
        g = g.divide_monomial(ce)
    g = g.primitive()
    if not g.is_constant():
        guards.setdefault(repr(g), g)


def _bind(br, sub, *atoms):
    """Substitute the bindings sub (name -> value) everywhere at once and
    append atoms to the path.

    Guards on a bound name are transferred. A guard without one comes back
    from substitute as itself and is already normalized, so only its repeat
    check is needed.
    """
    out = br.copy()
    out.path = br.path + atoms
    out.bindings = {k: v.substitute(sub) for k, v in br.bindings.items()}
    out.bindings.update(sub)
    out.equations = [p.substitute(sub) for p in br.equations]
    out.nondeg = br.nondeg.substitute(sub)
    out.guards = {}
    for g in br.guards.values():
        h = g.substitute(sub)
        if h is g:
            out.guards.setdefault(repr(g), g)
        else:
            _push_guard(h, out.guards)
    return out


def _child(br, path, guards, sub):
    """The one maker of split children: br on the given path, under the
    hypotheses g != 0 for g in guards, then the bindings sub, if any, as one
    substitution.

    A child whose invertibility polynomial the bindings make zero dies here,
    before its equations, bindings and guards are substituted, so it is
    never queued.
    """
    child = br.copy()
    child.splits += 1
    child.path = path
    if sub:
        # _bind's own substitution into nondeg then returns it untouched
        child.nondeg = br.nondeg.substitute(sub)
        if child.nondeg.is_zero():
            raise ContradictionSignal(NONDEG_VANISHED, _NONDEG_DETAIL)
    for g in guards:
        _push_guard(g, child.guards)
    return _bind(child, sub) if sub else child


def _residual(br, reason):
    return Residual(br.path, reason, br.equations, br.bindings, br.guards.values())


def _invertible(c, guard_vars):
    """Whether the coefficient c is a nonzero constant or a guarded monomial."""
    return c.is_constant() or (len(c.terms) == 1 and c.vars_used() <= guard_vars)


def _rule_single_term(br):
    """Bind u = 0 for an equation u^k = 0. Normalization has stripped every
    guarded factor, so such a u is unguarded."""
    for p in br.equations:
        if len(p.terms) == 1 and len(p.vars_used()) == 1:
            u, = p.vars_used()
            return _bind(br, {u: br.ring.zero()}, "%s = 0" % u)
    return None


def _pure_power_pair(p):
    """Match a*u^k + b*v^k with distinct single variables, odd k >= 3, u
    before v in ring order; returns (index of u, a, index of v, b, k)."""
    if len(p.terms) != 2:
        return None
    # ascending exponent tuples put the later variable's term first
    (e2, c2), (e1, c1) = sorted(p.terms.items())
    nz1 = [i for i, e in enumerate(e1) if e]
    nz2 = [i for i, e in enumerate(e2) if e]
    if len(nz1) != 1 or len(nz2) != 1 or nz1 == nz2:
        return None
    i, j = nz1[0], nz2[0]
    k = e1[i]
    if e2[j] != k or k < 3 or k % 2 == 0:
        return None
    return (i, c1, j, c2, k)


def _rule_power_bind(br):
    domain = br.ring.domain
    for p in br.equations:
        m = _pure_power_pair(p)
        if m is None:
            continue
        i, a, j, b, k = m
        earlier, later = br.ring.vars[i], br.ring.vars[j]
        # later^k = d * earlier^k
        d = field_div(-a, b)
        root = kth_root_in_field(domain, d, k)
        if root is not None:
            value = br.ring.var(earlier) * root
            return _bind(br, {later: value}, "%s = %r" % (later, value))
        if domain is not QQ or _divisors(k) != [1, k]:
            continue
        if abs(d) < 1:
            src, dst, d = later, earlier, field_div(1, d)
        else:
            src, dst = earlier, later
        mag = abs(d)
        field = ExtensionField(
            tuple([-mag] + [0] * (k - 1) + [1]), (0, mag + 1)
        )
        ring = PolyRing(br.ring.vars, field)
        lifted = Branch(
            ring,
            [ring.lift(p) for p in br.equations],
            ring.lift(br.nondeg),
            {k: ring.lift(v) for k, v in br.bindings.items()},
            [ring.lift(g) for g in br.guards.values()],
            br.path,
            br.splits,
        )
        sign = -1 if d < 0 else 1
        value = ring.var(src) * (field.gen() * sign)
        atom = "adjoin c, c^%d = %s; %s = %r" % (k, mag, dst, value)
        return _bind(lifted, {dst: value}, atom)
    return None


def _rule_linear_bind(br):
    """Bind the latest unknown u that an equation holds only as c*u, with c a
    constant, by the first such equation.

    A guarded monomial coefficient of u would divide the rest of the equation
    only if it divided the whole equation, and normalization has stripped
    every such factor, so only constant coefficients can bind.
    """
    index = br.ring.index
    leads = [(u, c, p) for p in br.equations for u, c in p.linear_leads()]
    if not leads:
        return None
    # max keeps the first of equal keys, so the first equation wins a tie
    u, c, p = max(leads, key=lambda lead: index[lead[0]])
    i = index[u]
    inv = field_div(-1, c)
    # the terms of p without u, negated, over c
    value = Polynomial(br.ring, {e: v * inv for e, v in p.terms.items() if not e[i]})
    return _bind(br, {u: value}, "%s = %r" % (u, value))


def _simplify(br):
    while True:
        # the rules rely on equations normalized under the branch's guards
        br.equations = _normalized_equations(br.equations, br.guard_vars())
        if br.nondeg.is_zero():
            raise ContradictionSignal(NONDEG_VANISHED, _NONDEG_DETAIL)
        nxt = _rule_single_term(br) or _rule_power_bind(br) or _rule_linear_bind(br)
        if nxt is None:
            return br
        br = nxt


def _split_clique(br):
    """Split a clique of products at once: when u*v = 0 is an equation for
    every two unknowns of a set S, at most one unknown of S is nonzero.

    S starts from the first equation u*v (distinct unknowns, exponent 1) and
    takes, in ring order, every unknown joined to all of S by such an
    equation. For |S| >= 3 the children, in ring order, are u != 0 with the
    rest of S zero for each u of S, then all of S zero: the minimal primes
    of the edge ideal of a complete graph, where the content split takes
    |S| - 1 levels. For two unknowns the content split has fewer children.
    """
    edges = set()
    clique = None
    for p in br.equations:
        if len(p.terms) != 1:
            continue
        (exps,) = p.terms
        pair = tuple(i for i, e in enumerate(exps) if e)
        if len(pair) == 2 and exps[pair[0]] == exps[pair[1]] == 1:
            edges.add(pair)
            clique = clique or list(pair)
    if clique is None:
        return None
    for k in range(len(br.ring.vars)):
        if k not in clique and all((min(i, k), max(i, k)) in edges for i in clique):
            clique.append(k)
    if len(clique) < 3:
        return None
    names = [br.ring.vars[i] for i in sorted(clique)]
    zero = br.ring.zero()
    specs = []
    for u in names:
        rest = [v for v in names if v != u]
        atoms = ("%s != 0" % u,) + tuple("%s = 0" % v for v in rest)
        specs.append((atoms, [br.ring.var(u)], dict.fromkeys(rest, zero)))
    specs.append((tuple("%s = 0" % v for v in names), [], dict.fromkeys(names, zero)))
    return specs


def _split_content(br):
    """Split u1*...*uk*w = 0 into the cases u1 = 0 | u1 != 0, u2 = 0 | ...
    | all ui != 0, w = 0."""
    for p in br.equations:
        ce = p.content_exps()
        if not any(ce):
            continue
        us = [br.ring.vars[i] for i, e in enumerate(ce) if e]
        specs = []
        for i, u in enumerate(us):
            prior = us[:i]
            atoms = tuple("%s != 0" % v for v in prior) + ("%s = 0" % u,)
            specs.append((atoms, [br.ring.var(v) for v in prior], {u: br.ring.zero()}))
        w = p.divide_monomial(ce).primitive()
        if not w.is_constant():
            # once every ui is guarded, normalization strips p down to w
            atom = "%s != 0; %r = 0" % (", ".join(us), w)
            specs.append(((atom,), [br.ring.var(v) for v in us], None))
        return specs
    return None


def _poly_sqrt(p):
    """Exact square root of a monomial with square coefficient, else None."""
    if p.is_zero():
        return p
    if len(p.terms) != 1:
        return None
    (exps, c), = p.terms.items()
    if any(e % 2 for e in exps):
        return None
    r = kth_root_in_field(p.ring.domain, c, 2)
    if r is None:
        return None
    half = tuple(e // 2 for e in exps)
    s = p.ring.monomial(half, 1) * r
    _, lc = s.leading()
    if sign_of(lc) < 0:
        s = -s
    return s


def _split_quadratic(br):
    guard_vars = br.guard_vars()
    two = br.ring.const(2)
    for u in br.ring.vars:
        for p in br.equations:
            if p.degree_in(u) != 2:
                continue
            cf = p.coeffs_in(u)
            P = cf[2]
            Q = cf.get(1, br.ring.zero())
            R = cf.get(0, br.ring.zero())
            if not _invertible(P, guard_vars):
                continue
            disc = Q * Q - br.ring.const(4) * P * R
            s = _poly_sqrt(disc)
            if s is None:
                continue
            try:
                plus = (-Q + s).exact_div(two * P)
                minus = (-Q - s).exact_div(two * P)
            except PolyError:
                continue
            specs = [(("%s = %r" % (u, plus),), [], {u: plus})]
            if not s.is_zero():
                specs.append((("%r != 0" % s, "%s = %r" % (u, minus)), [s], {u: minus}))
            return specs
    return None


def _split_finite(br):
    """Split on the finitely many values a subsystem allows for one unknown."""
    eqvars = [(p, p.vars_used()) for p in br.equations]
    plans = []
    for u in br.ring.vars:
        sub = [p for p, vs in eqvars if vs and vs <= {u}]
        if sub:
            plans.append((u, sub, None))
    present = sorted({v for _, vs in eqvars for v in vs}, key=br.ring.index.get)
    for i, u in enumerate(present):
        for v in present[i + 1 :]:
            sub = [p for p, vs in eqvars if vs and vs <= {u, v}]
            if len(sub) >= 2 and any(p.degree_in(v) > 0 for p in sub):
                plans.append((u, sub, v))
    for u, sub, v in plans:
        values, reason = _real_values(br.ring, sub, u, v)
        if reason:
            continue
        if not values:
            raise ContradictionSignal(NO_REAL_SOLUTION, "no real value for %s" % u)
        return [(("%s = %s" % (u, r),), [], {u: br.ring.const(r)}) for r in values]
    return None


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _exact_real_roots(coeffs, domain):
    """The real roots, sorted, of a nonzero coefficient list over domain,
    with a completeness flag."""
    total = sturm_count(coeffs)
    roots = []
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    if low:
        roots.append(0)
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return roots, len(roots) == total
    candidates = set()
    if len(coeffs) == 2:
        c0, c1 = coeffs
        candidates.add(field_div(-c0, c1))
    elif all(not c for c in coeffs[1:-1]):
        # a*u^m + b
        m = len(coeffs) - 1
        t = field_div(-coeffs[0], coeffs[-1])
        r = kth_root_in_field(domain, t, m)
        if r is not None:
            candidates.add(r)
            if m % 2 == 0:
                candidates.add(-r)
    if not any(isinstance(c, FieldElement) for c in coeffs):
        den = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        a0, an = ints[0], ints[-1]
        if a0 and abs(a0) <= ROOT_BOUND and abs(an) <= ROOT_BOUND:
            for dn in _divisors(a0):
                for dd in _divisors(an):
                    candidates.add(field_div(dn, dd))
                    candidates.add(field_div(-dn, dd))
    # the candidates are distinct, and none is 0 once the zero roots are out
    roots.extend(r for r in candidates if not eval_rational(coeffs, r))
    roots.sort(key=cmp_to_key(lambda a, b: sign_of(a - b)))
    return roots, len(roots) == total


def _real_values(ring, equations, u, v):
    """The real values of u that equations in u and v allow.

    v, unless None, is eliminated by one resultant; the real roots of the
    gcd of the equations left in u are then found exactly.
    Returns (values, None), the values sorted and complete, or (None, reason).
    """
    pool = equations
    if v is not None:
        pool = [p for p in equations if p.degree_in(v) == 0]
        with_v = [p for p in equations if p.degree_in(v) > 0]
        if len(with_v) >= 2:
            res = resultant(with_v[0], with_v[1], v)
            if res.is_zero():
                return None, "resultant in %s vanished" % v
            pool.append(res)
        elif not pool:
            return None, "underdetermined pair in %s, %s" % (u, v)
    g = reduce(_ugcd_monic, (univariate_coeffs(p, u) for p in pool))
    values, complete = _exact_real_roots(g, ring.domain)
    if not complete:
        zero = (0,) * len(ring.vars)
        i = ring.index[u]
        terms = {zero[:i] + (d,) + zero[i + 1 :]: c for d, c in enumerate(g) if c}
        return None, "could not enumerate the roots of %r" % Polynomial(ring, terms)
    return values, None


def close_branch(br):
    """Finish a branch with at most two residual unknowns exactly.

    Takes the real values of the earlier unknown u from _real_values (which
    eliminates the later unknown v, if any), and finishes each value's child
    the same way; a child has at most v left, so this recurses at most once.
    Returns a list of leaves: families, contradictions, residuals. Called
    from solve(), after _split_finite failed, it returns one Residual.
    """
    if not br.equations:
        return [make_family(br)]
    vs = set()
    for p in br.equations:
        vs |= p.vars_used()
    vs = sorted(vs, key=br.ring.index.get)
    if len(vs) > 2:
        return [_residual(br, "no finishing rule for %d unknowns" % len(vs))]
    u, v = vs[0], (vs[1] if len(vs) == 2 else None)
    values, reason = _real_values(br.ring, br.equations, u, v)
    if reason:
        return [_residual(br, reason)]
    leaves = []
    rejected = []
    for r in values:
        atom = "%s = %s" % (u, r)
        try:
            child = _simplify(_bind(br, {u: br.ring.const(r)}, atom))
        except ContradictionSignal as c:
            rejected.append("%s (%s)" % (atom, c.reason))
            continue
        leaves.extend(close_branch(child))
    if leaves:
        return leaves
    if v is None:
        how = "one unknown %s left" % u
    else:
        how = "eliminated %s by resultant, then solved for %s" % (v, u)
    detail = "%s; candidates: %s" % (how, "; ".join(rejected) if rejected else "none real")
    return [Contradiction(br.path, NO_REAL_SOLUTION, detail)]


def make_family(br):
    nd = br.nondeg
    if nd.is_zero():
        raise ContradictionSignal(NONDEG_VANISHED, "family without invertible members")
    conditions = {}
    pool = list(br.guards.values())
    if not nd.is_constant():
        pool.append(nd)
    for g in pool:
        _push_guard(g, conditions)
    nonzero, kept = _split_guards(conditions.values())
    free = [v for v in br.ring.vars if v not in br.bindings]
    return SolutionFamily(
        br.path,
        br.ring,
        br.bindings,
        free,
        sorted(nonzero, key=br.ring.index.get),
        kept,
        nd,
    )


def solve(system, max_depth=MAX_DEPTH, branch_budget=BRANCH_BUDGET):
    """Split the constraint system into families and dead branches."""
    if len(system.nondegeneracy) != 1:
        raise SolverError("expected a single invertibility polynomial")
    queue = [Branch(system.ring, system.equations, system.nondegeneracy[0], {}, (), (), 0)]
    families, contradictions, residuals = [], [], []
    spent = 0
    while queue:
        br = queue.pop(0)
        spent += 1
        if spent > branch_budget:
            residuals.append(_residual(br, BUDGET_EXHAUSTED))
            continue
        try:
            br = _simplify(br)
            if not br.equations:
                families.append(make_family(br))
                continue
            if br.splits >= max_depth:
                residuals.append(_residual(br, "branch depth limit"))
                continue
            specs = (
                _split_clique(br)
                or _split_content(br)
                or _split_quadratic(br)
                or _split_finite(br)
            )
        except ContradictionSignal as c:
            contradictions.append(Contradiction(br.path, c.reason, c.detail))
            continue
        if specs is None:
            # _split_finite has just tried every plan close_branch could
            # finish, so here close_branch only labels one residual
            residuals.extend(close_branch(br))
            continue
        for atoms, guards, sub in specs:
            path = br.path + atoms
            try:
                # a child that dies at birth is recorded, never queued
                queue.append(_child(br, path, guards, sub))
            except ContradictionSignal as c:
                contradictions.append(Contradiction(path, c.reason, c.detail))
    return SolveResult(families, contradictions, residuals)


def component_count(result):
    """Number of connected components, when the families make it readable.

    Every component of Aut(A) has dimension dim Aut, and a closed result
    covers Aut(A), so only the families with the most free unknowns count:
    a smaller one lies in the closure of those. Each of them gives 2^k,
    k the number of its nonzero unknowns that divide its det1
    (nondeg_value), one component per sign pattern of those factors; a
    guard that does not divide det1 marks where the solver split, not a
    boundary between components. The count is "undetermined" on a residual
    or when one of those families has a condition.
    """
    if result.residuals:
        return "undetermined"
    top = max((len(fam.free) for fam in result.families), default=0)
    total = 0
    for fam in result.families:
        if len(fam.free) < top:
            continue
        if fam.conditions:
            return "undetermined"
        content = fam.nondeg_value.content_exps()
        total += 2 ** sum(1 for u in fam.nonzero if content[fam.ring.index[u]])
    return total


def classify_det1(family):
    """Image of the linear-part determinant over one family."""
    d = family.nondeg_value
    if d.is_zero():
        return "undetermined"
    if d.is_constant():
        c = d.constant_value()
        if c == 1:
            return "{1}"
        return "{%s}" % (c,)
    if len(d.terms) != 1:
        return "undetermined"
    (exps, c), = d.terms.items()
    vs = [family.ring.vars[i] for i, e in enumerate(exps) if e]
    if any(v not in family.nonzero for v in vs):
        return "undetermined"
    if any(e % 2 for e in exps):
        return "R\\{0}"
    return "(0,inf)" if sign_of(c) > 0 else "(-inf,0)"
