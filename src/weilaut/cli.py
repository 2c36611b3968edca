"""Command line front end.

Exit codes: 0 success (solve/report: all branches closed), 1 usage or
parse error, 2 residual branches remain, 3 verification samples failed.
"""

import argparse
import random
import sys
from fractions import Fraction

from .endo import EndoError, constraint_system, generic_endo, numeric_instantiate, resolve_bindings
from .parsing import ParseError, parse_bindings, parse_specfile
from .poly import PolyError
from .published import reference_for
from .report import (
    analyze,
    build_report,
    canonical_json,
    compact,
    render_report_text,
    render_solve_text,
)
from .scalar import FieldError
from .solver import BRANCH_BUDGET, BUDGET_EXHAUSTED, MAX_DEPTH, SolverError
from .weil import WeilError, build_algebra


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="weilaut",
        description="exact automorphism groups of finite-dimensional Weil algebras",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (_, text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("specfile", help="algebra spec file")
        if name == "verify":
            sp.add_argument("bindingsfile", help="bindings file to verify")
        sp.add_argument(
            "--algebra",
            metavar="NAME",
            help="pick this algebra block when the file declares several",
        )
        sp.add_argument(
            "--precedence",
            metavar="ORDER",
            help="override the variable precedence, e.g. \"Y>X\"",
        )
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return parser


def load_spec(args):
    with open(args.specfile, "r", encoding="utf-8") as fh:
        specs = parse_specfile(fh.read())
    if args.algebra:
        for spec in specs:
            if spec.name == args.algebra:
                break
        else:
            raise UsageError(
                "no algebra named %r in %s" % (args.algebra, args.specfile)
            )
    else:
        spec = specs[0]
    if args.precedence:
        order = [part.strip() for part in args.precedence.split(">")]
        spec = spec.with_precedence(order)
    return spec


def _format_combination(pairs, names):
    """A combination of basis monomials, given as (index, coefficient) pairs."""
    parts = []
    for k, c in pairs:
        n = names[k]
        if n == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(n)
        elif c == -1:
            parts.append("-" + n)
        else:
            parts.append("%s*%s" % (c, n))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def cmd_basis(args):
    algebra = build_algebra(load_spec(args))
    names = [compact(m) for m in algebra.basis_names()]
    print("dim %d: %s" % (algebra.dim, ", ".join(names)))
    return 0


def cmd_table(args):
    algebra = build_algebra(load_spec(args))
    names = [compact(m) for m in algebra.basis_names()]
    for i, row in enumerate(map(dict, algebra.structure_pairs)):
        for j in range(i, algebra.dim):
            print(
                "%s * %s = %s"
                % (names[i], names[j], _format_combination(row.get(j, ()), names))
            )
    return 0


def cmd_constraints(args):
    spec = load_spec(args)
    system = constraint_system(generic_endo(build_algebra(spec)))
    for (gen, cls), eq in zip(system.provenance, system.equations):
        print("[%s -> %s] %r = 0" % (gen, cls, eq.primitive()))
    print("nondegenerate: %r != 0" % system.nondegeneracy[0])
    data = reference_for(spec)
    if data and data.get("equations_printed"):
        print("reference forms:")
        for eq in data["equations_printed"]:
            print("  %s = 0" % eq)
    return 0


def _write_json(path, report):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(report))


def cmd_solve(args, renderer=render_solve_text):
    if args.max_branch_depth < 0:
        raise UsageError(
            "--max-branch-depth must be at least 0, got %d" % args.max_branch_depth
        )
    spec = load_spec(args)
    analysis = analyze(spec, max_depth=args.max_branch_depth)
    report = build_report(analysis)
    sys.stdout.write(renderer(analysis, report))
    if args.json:
        _write_json(args.json, report)
    open_branches = sum(1 for r in analysis.result.residuals if r.reason == BUDGET_EXHAUSTED)
    if open_branches:
        print(
            "warning: branch budget %d exhausted, %d branches left open"
            % (BRANCH_BUDGET, open_branches),
            file=sys.stderr,
        )
    return 0 if analysis.result.closed() else 2


def cmd_report(args):
    return cmd_solve(args, renderer=render_report_text)


def _sample_value(rng, strict):
    x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    while strict and x == 0:
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return x


def cmd_verify(args):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1, got %d" % args.samples)
    spec = load_spec(args)
    endo = generic_endo(build_algebra(spec))
    with open(args.bindingsfile, "r", encoding="utf-8") as fh:
        parsed = parse_bindings(fh.read(), endo.ring)
    bindings = parsed["bindings"]
    free = [n for n in endo.unknowns if n in parsed["free"]]
    nonzero = set(parsed["nonzero"])
    uncovered = [
        n for n in endo.unknowns if n not in bindings and n not in free
    ]
    if uncovered:
        raise UsageError(
            "unknowns neither bound nor declared free: %s"
            % ", ".join(uncovered)
        )
    rng = random.Random(args.seed)
    failures = 0
    for k in range(1, args.samples + 1):
        point = dict(bindings)
        for name in free:
            point[name] = _sample_value(rng, name in nonzero)
        closed = resolve_bindings(endo.ring, point)
        values = {n: closed[n].constant_value() for n in endo.unknowns}
        num = numeric_instantiate(endo, values)
        if num.is_homomorphism and num.is_automorphism:
            print("sample %d: pass" % k)
            continue
        failures += 1
        if not num.is_homomorphism:
            pairs = ", ".join(
                "(%s, %s)" % (compact(a), compact(b))
                for a, b in num.failing_pairs[:3]
            )
            print("sample %d: FAIL, product check broke at %s" % (k, pairs))
        else:
            print("sample %d: FAIL, linear part is singular" % k)
    print("verified %d/%d samples" % (args.samples - failures, args.samples))
    return 0 if failures == 0 else 3


# the flags that only some subcommands read; any other command rejects them
FLAGS = {
    "--json": dict(metavar="PATH", help="write the canonical JSON report to PATH"),
    "--seed": dict(type=int, default=0, help="sampling seed"),
    "--samples": dict(type=int, default=20, help="number of verify samples"),
    "--max-branch-depth": dict(
        type=int, default=MAX_DEPTH, dest="max_branch_depth", help="solver split depth limit"
    ),
}
SOLVE_FLAGS = ("--json", "--seed", "--max-branch-depth")

# each subcommand's handler, help line and FLAGS, in the order help lists them
COMMANDS = {
    "basis": (cmd_basis, "print the standard-monomial basis and dimension", ()),
    "table": (cmd_table, "print the multiplication table of the basis", ()),
    "constraints": (cmd_constraints, "print the automorphism constraint system", ()),
    "solve": (cmd_solve, "case-split the constraint system into families", SOLVE_FLAGS),
    "verify": (
        cmd_verify,
        "sample a bindings file against the numeric product check",
        ("--seed", "--samples"),
    ),
    "report": (cmd_report, "full report: constraints, families, reference comparison", SOLVE_FLAGS),
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](args)
    except (
        UsageError, ParseError, WeilError, PolyError, FieldError, EndoError, SolverError, OSError
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
