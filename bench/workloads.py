"""The four workloads: their set-up, the operations of one pass, and the checks.

Every call into weilaut goes through a module attribute (``report.analyze``,
``endo.numeric_instantiate``, ...), so the traced run can patch each public
function where it is looked up.

- presentations: the shipped three at their shipped precedence and reversed,
  plus three residual probes. One operation is one algebra through
  analyze -> build_report -> canonical_json, as ``weilaut report --json``.
- tangent: tan3 and tan4, the same operation. The solver does most of the work.
- jets: jet23, jet24 and jet32, the same operation. There are no equations,
  so the time is symbolic Bareiss on the nil block.
- verify: one operation is one numeric product check, as ``weilaut verify``
  runs it, on points that must pass and generic points that must fail.
"""

import os
import random
from fractions import Fraction

from weilaut import endo, parsing, report
from weilaut.scalar import QQ
from weilaut.solver import component_count
from weilaut.specdata import spec_path

import expected

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(BENCH_DIR, "corpus.alg")

WORKLOADS = ("presentations", "tangent", "jets", "verify")

# points of each kind (passing, generic) per algebra in one verify pass
VERIFY_POINTS = 6
VERIFY_SOURCES = (
    ("quartic", "quartic_family.bindings"),
    ("sextic", "sextic_identity.bindings"),
    ("tan4", None),  # points come from the solved families
)


class Op:
    """One operation of a pass: ``run()`` calls the program, ``check(out)``
    returns (problems, undecided) without calling any traced function.
    ``is_report`` marks an algebra report, which counts in undecided_share."""

    __slots__ = ("group", "run", "check", "is_report")

    def __init__(self, group, run, check, is_report):
        self.group = group
        self.run = run
        self.check = check
        self.is_report = is_report


class Workload:
    __slots__ = ("name", "ops", "algebras", "undecided")

    def __init__(self, name, ops, algebras=0, undecided=()):
        self.name = name
        self.ops = ops
        # set-up analyses judged here rather than per operation (verify only)
        self.algebras = algebras
        self.undecided = list(undecided)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _shipped(name):
    return parsing.parse_specfile(_read(spec_path(name)))[0]


def _corpus(names):
    specs = {s.name: s for s in parsing.parse_specfile(_read(CORPUS))}
    return [specs[n] for n in names]


def _golden(group):
    """Canonical JSON captured at the seed, for the shipped three only."""
    if group not in expected.GOLDEN:
        return None
    path = os.path.join(BENCH_DIR, "golden", group + ".json")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _reversed(spec):
    order = spec.precedence or spec.variables
    return spec.with_precedence(tuple(reversed(order)))


def _undecided(rep):
    return bool(rep["residuals"]) or rep["components"] == "undetermined"


def _report_op(group, spec, golden):
    facts = expected.FACTS[group.replace("_rev", "")]

    def run():
        rep = report.build_report(report.analyze(spec))
        return rep, report.canonical_json(rep)

    def check(out):
        rep, text = out
        dim, components, det1 = facts
        problems = []
        if rep["algebra"]["dim"] != dim:
            problems.append("%s: dim %r, expected %d" % (group, rep["algebra"]["dim"], dim))
        undecided = _undecided(rep)
        if not undecided:
            if components is not None and rep["components"] != components:
                problems.append(
                    "%s: %r components, expected %d" % (group, rep["components"], components)
                )
            if det1 is not None and rep["det1_image"] != det1:
                problems.append(
                    "%s: det1 image %s, expected %s" % (group, rep["det1_image"], det1)
                )
        if golden is not None and text != golden:
            problems.append("%s: canonical JSON differs from bench/golden" % group)
        return problems, undecided

    return Op(group, run, check, True)


def _sample_value(rng, strict):
    """Rational sample drawn as `weilaut verify` draws it."""
    x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    while strict and x == 0:
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return x


def _verify_op(group, analysis, point, must_pass):
    e = analysis.endo
    system = analysis.system

    def run():
        closed = endo.resolve_bindings(e.ring, point)
        values = {n: closed[n].constant_value() for n in e.unknowns}
        return values, endo.numeric_instantiate(e, values)

    def check(out):
        values, num = out
        # criterion 5's oracle: a homomorphism is a zero of every constraint,
        # an automorphism is one with det1 != 0
        vanish = all(eq.evaluate(values) == 0 for eq in system.equations)
        det1 = system.nondegeneracy[0].evaluate(values)
        problems = []
        if num.is_homomorphism != vanish:
            problems.append("%s: is_homomorphism %s, constraints say %s" % (group, num.is_homomorphism, vanish))
        if num.is_automorphism != (vanish and det1 != 0):
            problems.append("%s: is_automorphism %s disagrees with det1" % (group, num.is_automorphism))
        if must_pass and not num.is_automorphism:
            problems.append("%s: a point of a family failed the product check" % group)
        if not must_pass and num.is_homomorphism:
            problems.append("%s: a generic point passed the product check" % group)
        return problems, False

    return Op(group, run, check, False)


def _verify_setup(seed):
    rng = random.Random(seed)
    specs = {"quartic": _shipped("quartic"), "sextic": _shipped("sextic")}
    specs["tan4"] = _corpus(["tan4"])[0]
    ops = []
    undecided = []
    for name, bindings_file in VERIFY_SOURCES:
        analysis = report.analyze(specs[name])
        result = analysis.result
        if result.residuals or component_count(result) == "undetermined":
            undecided.append(name)
        if bindings_file is not None:
            parsed = parsing.parse_bindings(_read(spec_path(bindings_file)), analysis.endo.ring)
            sources = [(parsed["bindings"], parsed["free"], set(parsed["nonzero"]), ())]
        else:
            for fam in result.families:
                if fam.ring.domain is not QQ:
                    raise ValueError("%s family %s needs an extension field" % (name, fam.path))
            sources = [
                (f.bindings, f.free, set(f.nonzero), f.conditions) for f in result.families
            ]
        group = name + "_verify"
        for _ in range(VERIFY_POINTS):
            bindings, free, nonzero, conditions = rng.choice(sources)
            values = {sym: _sample_value(rng, sym in nonzero) for sym in free}
            while any(c.evaluate(values) == 0 for c in conditions):
                values = {sym: _sample_value(rng, sym in nonzero) for sym in free}
            point = dict(bindings)
            point.update(values)
            ops.append(_verify_op(group, analysis, point, True))
        for _ in range(VERIFY_POINTS):
            point = {u: _sample_value(rng, False) for u in analysis.endo.unknowns}
            ops.append(_verify_op(group, analysis, point, False))
    return Workload("verify", ops, len(VERIFY_SOURCES), undecided)


def setup(name, seed):
    """Parse the workload's spec text and build its operations.

    For verify this also solves the families and draws the sample points
    from ``seed``; the other workloads use ``seed`` only to order each pass.
    """
    if name == "verify":
        return _verify_setup(seed)
    if name == "presentations":
        shipped = [_shipped(n) for n in expected.GOLDEN]
        named = [(s.name, s) for s in shipped]
        named += [(s.name + "_rev", _reversed(s)) for s in shipped]
        named += [(s.name, s) for s in _corpus(["cusp", "e6", "tangent2_xy"])]
    elif name == "tangent":
        named = [(s.name, s) for s in _corpus(["tan3", "tan4"])]
    elif name == "jets":
        named = [(s.name, s) for s in _corpus(["jet23", "jet24", "jet32"])]
    else:
        raise ValueError("unknown workload %r" % name)
    return Workload(name, [_report_op(group, spec, _golden(group)) for group, spec in named])

