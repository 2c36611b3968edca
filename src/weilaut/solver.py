"""Case-splitting solver for automorphism constraint systems.

A branch carries the residual equations, the accumulated bindings, and the
nonzero hypotheses (guards) introduced by case splits. Deterministic rules
shrink a branch (substituting forced bindings); splitting rules fan out into
complementary subcases, each described by a spec (path atoms, guards,
binding) that _child turns into a branch; small residual systems are
finished off exactly with resultants and Sturm counts. Guards arise only
from split complements, never from the invertibility requirement, which
instead kills a branch outright when it collapses to zero.
"""

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import itemgetter

from .scalar import QQ, ExtensionField, FieldElement, eval_rational, field_div
from .scalar import kth_root_in_field, sign_of
from .poly import Polynomial, PolyError, PolyRing, resultant, sturm_count, univariate_coeffs
from .poly import _ugcd_monic

NONDEG_VANISHED = "nondegeneracy-vanished"
INCONSISTENT = "inconsistent-constants"
NO_REAL_SOLUTION = "no-real-solution"
# the reason of every residual left queued when the branch budget runs out
BUDGET_EXHAUSTED = "branch budget exhausted"

BRANCH_BUDGET = 512
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
        self.guards = list(guards)
        self.path = tuple(path)
        self.splits = splits

    def guard_vars(self):
        out = set()
        for g in self.guards:
            vs = g.vars_used()
            if len(g.terms) == 1 and len(vs) == 1:
                out.update(vs)
        return out

    def copy(self):
        return Branch(
            self.ring, self.equations, self.nondeg, self.bindings, self.guards, self.path, self.splits
        )


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
    __slots__ = ("families", "contradictions", "residuals", "system")

    def __init__(self, families, contradictions, residuals, system):
        self.families = families
        self.contradictions = contradictions
        self.residuals = residuals
        self.system = system

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
    repeats, sorted by (total degree, number of terms, rendering)."""
    keyed, seen = [], set()
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
        if r not in seen:
            seen.add(r)
            keyed.append(((q.total_degree(), len(q.terms), r), q))
    # equal renderings are deduplicated, so no two keys tie
    keyed.sort(key=itemgetter(0))
    return [q for _, q in keyed]


def _push_guard(g, guards, seen):
    """Record the hypothesis g != 0, factored into variables where possible."""
    if g.is_zero():
        raise ContradictionSignal(INCONSISTENT, "a nonzero hypothesis vanished")
    if g.is_constant():
        return
    ce = g.content_exps()
    for i, e in enumerate(ce):
        if e:
            v = g.ring.var(g.ring.vars[i])
            r = repr(v)
            if r not in seen:
                seen.add(r)
                guards.append(v)
    if any(ce):
        g = g.divide_monomial(ce)
    g = g.primitive()
    if g.is_constant():
        return
    r = repr(g)
    if r not in seen:
        seen.add(r)
        guards.append(g)


def _bind(br, name, value, *atoms):
    """Substitute name := value everywhere and append atoms to the path.

    Guards on name are transferred. A guard without name comes back from
    substitute as itself and is already normalized, so only its repeat
    check is needed.
    """
    sub = {name: value}
    out = br.copy()
    out.path = br.path + atoms
    out.bindings = {k: v.substitute(sub) for k, v in br.bindings.items()}
    out.bindings[name] = value
    out.equations = [p.substitute(sub) for p in br.equations]
    out.nondeg = br.nondeg.substitute(sub)
    out.guards = []
    seen = set()
    for g in br.guards:
        h = g.substitute(sub)
        if h is not g:
            _push_guard(h, out.guards, seen)
            continue
        r = repr(g)
        if r not in seen:
            seen.add(r)
            out.guards.append(g)
    return out


def _child(br, path, guards, bind):
    """The one maker of split children: br on the given path, under the
    hypotheses g != 0 for g in guards, then the binding (name, value) if any."""
    child = br.copy()
    child.splits += 1
    child.path = path
    if guards:
        seen = {repr(g) for g in child.guards}
        for g in guards:
            _push_guard(g, child.guards, seen)
    return child if bind is None else _bind(child, *bind)


def _residual(br, reason):
    return Residual(br.path, reason, br.equations, br.bindings, br.guards)


def _invertible(c, guard_vars):
    """Whether the coefficient c is a nonzero constant or a guarded monomial."""
    return c.is_constant() or (len(c.terms) == 1 and c.vars_used() <= guard_vars)


def _is_prime(k):
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def _rule_single_term(br, guard_vars):
    for p in br.equations:
        if len(p.terms) != 1:
            continue
        vs = sorted(p.vars_used(), key=br.ring.index.get)
        unguarded = [v for v in vs if v not in guard_vars]
        if not unguarded:
            raise ContradictionSignal(
                INCONSISTENT, "%r = 0 although every factor is nonzero" % p
            )
        if len(vs) == 1:
            u = vs[0]
            return _bind(br, u, br.ring.zero(), "%s = 0" % u)
    return None


def _pure_power_pair(p):
    """Match a*u^k + b*v^k with distinct single variables, odd k >= 3."""
    if len(p.terms) != 2:
        return None
    (e1, c1), (e2, c2) = sorted(p.terms.items())
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
        if i > j:
            i, a, j, b = j, b, i, a
        earlier, later = br.ring.vars[i], br.ring.vars[j]
        # later^k = d * earlier^k
        d = field_div(-a, b)
        root = kth_root_in_field(domain, d, k)
        if root is not None:
            value = br.ring.var(earlier) * root
            return _bind(br, later, value, "%s = %r" % (later, value))
        if domain is not QQ or not _is_prime(k):
            continue
        d = Fraction(d)
        if abs(d) < 1:
            src, dst, d = later, earlier, 1 / d
        else:
            src, dst = earlier, later
        mag = abs(d)
        field = ExtensionField(
            tuple([-mag] + [0] * (k - 1) + [1]), (Fraction(0), mag + 1)
        )
        ring = PolyRing(br.ring.vars, field)
        lifted = Branch(
            ring,
            [ring.lift(p) for p in br.equations],
            ring.lift(br.nondeg),
            {k: ring.lift(v) for k, v in br.bindings.items()},
            [ring.lift(g) for g in br.guards],
            br.path,
            br.splits,
        )
        sign = -1 if d < 0 else 1
        value = ring.var(src) * (field.gen() * sign)
        atom = "adjoin c, c^%d = %s; %s = %r" % (k, mag, dst, value)
        return _bind(lifted, dst, value, atom)
    return None


def _rule_linear_bind(br, guard_vars):
    """Bind an unknown of degree 1 whose coefficient is invertible, when the
    rest of its equation divides exactly by that coefficient.

    Candidates rank constant coefficients first, then the latest unknown,
    then the first equation; the best one whose division is exact wins.
    """
    ring = br.ring
    candidates = []
    for pos, p in enumerate(br.equations):
        leads = p.linear_leads()
        if not leads:
            continue
        unguarded = [ring.index[v] for v in p.vars_used() if v not in guard_vars]
        for u, exps, c in leads:
            if any(exps[i] for i in unguarded):
                continue
            candidates.append((any(exps), -ring.index[u], pos, u, exps, c))
    candidates.sort(key=itemgetter(0, 1, 2))
    for _, _, pos, u, exps, c in candidates:
        i = ring.index[u]
        # the terms of p without u, negated, over the coefficient of u
        rest = Polynomial(ring, {e: -v for e, v in br.equations[pos].terms.items() if not e[i]})
        try:
            value = rest.exact_div(Polynomial(ring, {exps: c}))
        except PolyError:
            continue
        return _bind(br, u, value, "%s = %r" % (u, value))
    return None


def _simplify(br):
    while True:
        guard_vars = br.guard_vars()
        br.equations = _normalized_equations(br.equations, guard_vars)
        if br.nondeg.is_zero():
            raise ContradictionSignal(
                NONDEG_VANISHED, "the invertibility determinant vanished identically"
            )
        nxt = (
            _rule_single_term(br, guard_vars)
            or _rule_power_bind(br)
            or _rule_linear_bind(br, guard_vars)
        )
        if nxt is None:
            return br
        br = nxt


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
            specs.append((atoms, [br.ring.var(v) for v in prior], (u, br.ring.zero())))
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
            specs = [(("%s = %r" % (u, plus),), [], (u, plus))]
            if not s.is_zero():
                specs.append((("%r != 0" % s, "%s = %r" % (u, minus)), [s], (u, minus)))
            return specs
    return None


def _eliminate(equations, u, v):
    """The pool of equations in u alone; v, unless None, is eliminated by one resultant.

    Returns (pool, None), or (None, reason) when v cannot be eliminated.
    """
    if v is None:
        return equations, None
    with_v = [p for p in equations if p.degree_in(v) > 0]
    without_v = [p for p in equations if p.degree_in(v) == 0]
    if len(with_v) >= 2:
        res = resultant(with_v[0], with_v[1], v)
        if res.is_zero():
            return None, "resultant in %s vanished" % v
        return without_v + [res], None
    if without_v:
        return without_v, None
    return None, "underdetermined pair in %s, %s" % (u, v)


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
        pool, reason = _eliminate(sub, u, v)
        if reason:
            continue
        g = _common_univariate(pool, u)
        if g.is_constant():
            raise ContradictionSignal(NO_REAL_SOLUTION, "equations in %s share no root" % u)
        roots, complete = _exact_real_roots(g, u)
        if not complete:
            continue
        if not roots:
            raise ContradictionSignal(NO_REAL_SOLUTION, "no real value for %s" % u)
        return [(("%s = %s" % (u, r),), [], (u, br.ring.const(r))) for r in roots]
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


def _sorted_roots(roots):
    return sorted(roots, key=cmp_to_key(lambda a, b: sign_of(a - b)))


def _exact_real_roots(p, var):
    """All real roots of a univariate polynomial, with a completeness flag."""
    coeffs = univariate_coeffs(p, var)
    total = sturm_count(p, (None, None))
    roots = []
    low = 0
    while low < len(coeffs) and not coeffs[low]:
        low += 1
    if low:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return _sorted_roots(roots), len(roots) == total
    candidates = set()
    if len(coeffs) == 2:
        c0, c1 = coeffs
        candidates.add(field_div(-c0, c1))
    elif all(not c for c in coeffs[1:-1]):
        # a*u^m + b
        m = len(coeffs) - 1
        t = field_div(-coeffs[0], coeffs[-1])
        r = kth_root_in_field(p.ring.domain, t, m)
        if r is not None:
            candidates.add(r)
            if m % 2 == 0:
                candidates.add(-r)
    if p.ring.domain is QQ:
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        ints = [int(Fraction(c) * den) for c in coeffs]
        a0, an = ints[0], ints[-1]
        if a0 and abs(a0) <= ROOT_BOUND and abs(an) <= ROOT_BOUND:
            for dn in _divisors(a0):
                for dd in _divisors(an):
                    candidates.add(Fraction(dn, dd))
                    candidates.add(Fraction(-dn, dd))
    for r in candidates:
        if not eval_rational(coeffs, r):
            roots.append(r)
    dedup = []
    for r in _sorted_roots(roots):
        if not any(not (r - q) for q in dedup):
            dedup.append(r)
    return dedup, len(dedup) == total


def _common_univariate(equations, var):
    acc = None
    for p in equations:
        cs = univariate_coeffs(p, var)
        acc = cs if acc is None else _ugcd_monic(acc, cs)
    ring = equations[0].ring
    i = ring.index[var]
    terms = {}
    for d, c in enumerate(acc):
        if c:
            e = [0] * len(ring.vars)
            e[i] = d
            terms[tuple(e)] = c
    return Polynomial(ring, terms)


def close_branch(br, _depth=0):
    """Finish a branch with at most two residual unknowns exactly.

    Eliminates the later unknown v (if any) by a resultant, enumerates the
    real roots of the earlier unknown u, and finishes each root's child the
    same way. Returns a list of leaves: families, contradictions, residuals.
    """
    if not br.equations:
        return [make_family(br)]
    vs = set()
    for p in br.equations:
        vs |= p.vars_used()
    vs = sorted(vs, key=br.ring.index.get)
    if len(vs) > 2 or _depth > 3:
        return [_residual(br, "no finishing rule for %d unknowns" % len(vs))]
    u, v = vs[0], (vs[1] if len(vs) == 2 else None)
    if v is None:
        dead = "equations in %s share no root" % u
        how = "one unknown %s left" % u
    else:
        dead = "eliminating %s leaves no real value for %s" % (v, u)
        how = "eliminated %s by resultant, then solved for %s" % (v, u)
    pool, reason = _eliminate(br.equations, u, v)
    if reason:
        return [_residual(br, reason)]
    g = _common_univariate(pool, u)
    if g.is_constant():
        return [Contradiction(br.path, NO_REAL_SOLUTION, dead)]
    roots, complete = _exact_real_roots(g, u)
    if not complete:
        return [_residual(br, "could not enumerate the roots of %r" % g)]
    leaves = []
    rejected = []
    for r in roots:
        atom = "%s = %s" % (u, r)
        try:
            child = _simplify(_bind(br, u, br.ring.const(r), atom))
        except ContradictionSignal as c:
            rejected.append("%s (%s)" % (atom, c.reason))
            continue
        if child.equations:
            leaves.extend(close_branch(child, _depth + 1))
        else:
            leaves.append(make_family(child))
    if leaves:
        return leaves
    detail = "%s; candidates: %s" % (how, "; ".join(rejected) if rejected else "none real")
    return [Contradiction(br.path, NO_REAL_SOLUTION, detail)]


def make_family(br):
    nd = br.nondeg
    if nd.is_zero():
        raise ContradictionSignal(NONDEG_VANISHED, "family without invertible members")
    nonzero = set()
    conditions = []
    seen = set()
    pool = list(br.guards)
    if not nd.is_constant():
        pool.append(nd)
    for g in pool:
        _push_guard(g, conditions, seen)
    kept = []
    for g in conditions:
        vs = g.vars_used()
        if len(g.terms) == 1 and len(vs) == 1:
            nonzero.update(vs)
        else:
            kept.append(g)
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


def solve(system, max_depth=24, branch_budget=BRANCH_BUDGET):
    """Split the constraint system into families and dead branches."""
    if len(system.nondegeneracy) != 1:
        raise SolverError("expected a single invertibility polynomial")
    ring = system.ring
    root = Branch(
        ring,
        [p for p in system.equations],
        system.nondegeneracy[0],
        {},
        [],
        (),
        0,
    )
    queue = [root]
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
            specs = _split_content(br) or _split_quadratic(br) or _split_finite(br)
        except ContradictionSignal as c:
            contradictions.append(Contradiction(br.path, c.reason, c.detail))
            continue
        if specs is None:
            for leaf in close_branch(br):
                if isinstance(leaf, SolutionFamily):
                    families.append(leaf)
                elif isinstance(leaf, Contradiction):
                    contradictions.append(leaf)
                else:
                    residuals.append(leaf)
            continue
        for atoms, guards, bind in specs:
            path = br.path + atoms
            try:
                queue.append(_child(br, path, guards, bind))
            except ContradictionSignal as c:
                contradictions.append(Contradiction(path, c.reason, c.detail))
    return SolveResult(families, contradictions, residuals, system)


def component_count(result):
    """Number of connected components, when the families make it readable."""
    if result.residuals:
        return "undetermined"
    total = 0
    for fam in result.families:
        if fam.conditions:
            return "undetermined"
        total += 2 ** len(fam.nonzero)
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
        return "{%s}" % (repr(c) if isinstance(c, FieldElement) else str(Fraction(c)),)
    if len(d.terms) != 1:
        return "undetermined"
    (exps, c), = d.terms.items()
    vs = [family.ring.vars[i] for i, e in enumerate(exps) if e]
    if any(v not in family.nonzero for v in vs):
        return "undetermined"
    if any(e % 2 for e in exps):
        return "R\\{0}"
    return "(0,inf)" if sign_of(c) > 0 else "(-inf,0)"
