"""Benchmark of the weilaut pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it compiles and imports weilaut from
./src and exits with an error when that is missing. Workloads are
presentations, tangent, jets and verify (see bench/workloads.py). The seed
fixes the inputs: the order of each pass, and verify's sample points. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

Timings are taken in fresh interpreters started one after another, so
nothing else from the benchmark competes for the machine while they run.
An end-to-end run spreads its measuring time over WORKERS of them, so its
set-up samples and passes see more than one of the machine's spells.

--trace 0 measures with tracing off and prints the end-to-end metrics:
  setup_s        median over the WORKERS fresh interpreters of importing
                 weilaut and parsing the workload's spec text (for verify
                 also solving the families and drawing the sample points),
                 in seconds on a machine where one run of the reference
                 loop below takes NOMINAL_REF_S: each set-up time is divided
                 by the loop's mean time just before and just after it. On
                 a shared 2-core VM raw set-up times of 6-10 ms followed the
                 machine's spells, and the medians of two sets of ten runs
                 differed by 30%; the raw median is printed as setup_raw_s.
  pass_rel.p50   median time of one pass over all the workload's operations,
                 divided by the mean time of a fixed reference loop that
                 runs every 10 ms of CPU time during that pass (unit: ref,
                 one run of the loop). On a shared 2-core VM single passes
                 swung by 15-20% with the machine's slow and fast spells;
                 the ratio to this loop swung by 2-7%, against 7-12% for a
                 loop timed only before and after the pass.
  pass_rel.tail  highest percentile of the same samples that still has ten
                 samples beyond it, but never below the median; with about
                 20 passes or fewer it is the middle pass
  peak_rss_mb    peak resident memory of the measuring process
It also prints failed_share (failed operations over attempted ones),
undecided_share (reports with residuals or undetermined components over
algebras attempted) and machine.ref_s (the reference loop's median time in s).
The two shares are not in BENCHMARK.json: they are 0 on some workloads. A
failure is counted in the JSON's failed; an algebra that the seed decided
and that comes out undecided makes the run incorrect.

--trace 1 prints the per-layer metrics. One untraced process gives the
per-algebra rows and machine.ref_s; a traced process patches the public
functions of every module (bench/tracer.py) and gives each layer's self
time; a second traced process must repeat every count exactly. Layer
times are the set-up's plus the median pass's; counts are the set-up's
plus one pass's, and every pass must give the same counts. The traced
spans are written to .bench_out/.
"""

import argparse
import collections
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("presentations", "tangent", "jets", "verify")
# measuring processes per end-to-end run, each a fresh interpreter that
# gives one set-up sample and runs passes for --seconds / WORKERS
WORKERS = 5
TAIL_BEYOND = 10
# set-up seconds are reported for a machine on which one run of the
# reference loop (bench/worker.py) takes this long
NOMINAL_REF_S = 0.0005
# every process this run starts must end within this many seconds of its start
TOTAL_LIMIT_S = 170.0
# share of --seconds given to the untraced, first traced and second traced process
TRACE_SPLIT = (0.4, 0.4, 0.2)

# per-layer time metric -> span name recorded by bench/tracer.py (self time)
LAYER_TIMES = (
    ("parsing.parse_s", "parsing.parse"),
    ("quotient.buchberger_s", "quotient.buchberger"),
    ("quotient.nf_table_s", "quotient.nf_table"),
    ("quotient.standard_monomials_s", "quotient.standard_monomials"),
    ("weil.build_algebra_self_s", "weil.build_algebra"),
    ("endo.generic_endo_s", "endo.generic_endo"),
    ("endo.constraint_system_self_s", "endo.constraint_system"),
    ("endo.extend_to_matrix_s", "endo.extend_to_matrix"),
    ("endo.substitute_s", "endo.substitute"),
    ("endo.numeric_instantiate_s", "endo.numeric_instantiate"),
    ("linalg.bareiss_s", "linalg.bareiss"),
    ("linalg.rref_s", "linalg.rref"),
    ("poly.repr_s", "poly.repr"),
    ("solver.solve_s", "solver.solve"),
    ("report.family_determinants_s", "report.family_determinants"),
    ("report.build_report_self_s", "report.build_report"),
    ("report.canonical_json_s", "report.canonical_json"),
    ("published.build_discrepancies_s", "published.build_discrepancies"),
)

# counts that must repeat exactly; bareiss_max_n is a maximum, the rest sums
LAYER_COUNTS = (
    ("quotient.gb_size", "count"),
    ("weil.dim", "count"),
    ("endo.unknowns", "count"),
    ("endo.equations", "count"),
    ("endo.numeric_calls", "count"),
    ("endo.failing_pairs", "count"),
    ("linalg.bareiss_calls", "count"),
    ("linalg.bareiss_max_n", "rows"),
    ("poly.repr_calls", "count"),
    ("poly.exact_div_calls", "count"),
    ("poly.resultant_calls", "count"),
    ("solver.families", "count"),
    ("solver.contradictions", "count"),
    ("solver.residuals", "count"),
    ("solver.close_branch_calls", "count"),
    ("report.json_bytes", "bytes"),
    ("published.discrepancies", "count"),
    ("scalar.kth_root_in_field_calls", "count"),
)

# operation groups of all workloads, one algebra.<group>.rel row each
GROUPS = (
    "tangent2", "quartic", "sextic",
    "tangent2_rev", "quartic_rev", "sextic_rev",
    "cusp", "e6", "tangent2_xy",
    "tan3", "tan4",
    "jet23", "jet24", "jet32",
    "quartic_verify", "sextic_verify", "tan4_verify",
)


class BenchError(Exception):
    pass


def run_worker(args, deadline, *extra):
    """Run bench/worker.py to completion and return its JSON output."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += [str(x) for x in extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for %s" % " ".join(cmd[2:]))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker still running after %.0f s" % TOTAL_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError(
            "worker exited with %d:\n%s" % (proc.returncode, proc.stderr.strip())
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def relative(passes):
    """Each pass's time over the reference loop's mean time during that pass."""
    return [p["seconds"] / p["ref_s"] for p in passes]


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, but never below the median: with about 20 samples or fewer
    it is the middle one (the upper middle for an even count)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def checked(out):
    """Problems the worker reported, as one list of messages."""
    problems = list(out["problems"])
    if out["regressed"]:
        problems.append(
            "undecided now, decided at the seed: %s" % ", ".join(out["regressed"])
        )
    if not out["passes"]:
        problems.append("no pass completed")
    return problems


def end_to_end(args, deadline):
    outs = [
        run_worker(args, deadline, "--seconds", args.seconds / WORKERS)
        for _ in range(WORKERS)
    ]
    problems = [p for out in outs for p in checked(out)]
    passes = [p for out in outs for p in out["passes"]]
    if not passes:
        return outs, problems, {}
    setups = [out["setup_s"] / out["setup_ref_s"] * NOMINAL_REF_S for out in outs]
    rel = relative(passes)
    tail_value, tail_pct = tail(rel)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_rel.p50": (statistics.median(rel), "ref"),
        "pass_rel.tail": (tail_value, "ref"),
        "peak_rss_mb": (max(out["peak_rss_mb"] for out in outs), "MB"),
    }
    notes = {
        "setup_s": "median of %d interpreters" % len(setups),
        "pass_rel.p50": "%d passes" % len(rel),
        "pass_rel.tail": "p%.0f of %d samples" % (tail_pct, len(rel)),
    }
    for name, (value, unit) in metrics.items():
        print("%-16s %12.6f %-5s %s" % (name, value, unit, notes.get(name, "")))
    print("%-16s %12.6f %-5s" % ("setup_raw_s", statistics.median(out["setup_s"] for out in outs), "s"))
    attempted = sum(out["attempted"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    reports = sum(out["reports"] for out in outs)
    undecided = sum(out["undecided"] for out in outs)
    print("%-16s %12.6f %-5s %d/%d operations" % (
        "failed_share", failed / attempted, "1", failed, attempted))
    print("%-16s %12.6f %-5s %d/%d algebras" % (
        "undecided_share", undecided / max(reports, 1), "1", undecided, reports))
    print("%-16s %12.6f %-5s" % ("machine.ref_s", statistics.median(p["ref_s"] for p in passes), "s"))
    return outs, problems, metrics


def layer_values(out):
    """Per-layer times and counts of one traced worker."""
    setup, passes = out["segments"][0], out["segments"][1:]
    problems = []
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        problems.append("counts differ between passes of one traced run")
    times = {}
    for metric, span in LAYER_TIMES:
        per_pass = [p["self_s"].get(span, 0.0) for p in passes]
        times[metric] = setup["self_s"].get(span, 0.0) + statistics.median(per_pass)
    counts = {}
    for name, _ in LAYER_COUNTS:
        a, b = setup["counts"].get(name, 0), passes[0]["counts"].get(name, 0)
        counts[name] = max(a, b) if name == "linalg.bareiss_max_n" else a + b
    return times, counts, problems


def per_layer(args, deadline):
    seconds = [args.seconds * share for share in TRACE_SPLIT]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    plain = run_worker(args, deadline, "--seconds", seconds[0])
    traced = run_worker(args, deadline, "--seconds", seconds[1], "--trace", "--spans", spans)
    again = run_worker(args, deadline, "--seconds", seconds[2], "--trace")
    outs = (plain, traced, again)
    problems = [p for out in outs for p in checked(out)]
    if not all(out["passes"] for out in outs):
        return outs, problems, {}
    times, counts, found = layer_values(traced)
    _, counts_again, found_again = layer_values(again)
    problems += found + found_again
    for name, _ in LAYER_COUNTS:
        if counts[name] != counts_again[name]:
            problems.append(
                "%s is %d in one traced run and %d in the other"
                % (name, counts[name], counts_again[name])
            )
    metrics = {name: (value, "s") for name, value in times.items()}
    for name, unit in LAYER_COUNTS:
        metrics[name] = (counts[name], unit)
    tried = counts["solver.families"] + counts["solver.contradictions"] + counts["solver.residuals"]
    metrics["solver.useful_ratio"] = (counts["solver.families"] / tried if tried else 0.0, "ratio")
    metrics["machine.ref_s"] = (statistics.median(p["ref_s"] for p in plain["passes"]), "s")
    metrics["trace.overhead"] = (
        statistics.median(relative(traced["passes"])) / statistics.median(relative(plain["passes"])),
        "ratio",
    )
    for group in GROUPS:
        rows = [
            p["op_s"][group] / p["ref_s"]
            for p in plain["passes"]
            if group in p["op_s"]
        ]
        metrics["algebra.%s.rel" % group] = (statistics.median(rows) if rows else 0.0, "ref")
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (name, value, unit))
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    return outs, problems, metrics


def main():
    ap = argparse.ArgumentParser(description="benchmark of the weilaut pipeline")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TOTAL_LIMIT_S
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "weilaut", "__init__.py")):
        print("error: no weilaut sources under %s; run from a checkout root" % SRC, file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(BENCH_DIR, quiet=1):
        print("error: compiling the sources failed", file=sys.stderr)
        return 2
    print("workload %s, seed %d, %.0f s, trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    try:
        if args.trace:
            outs, problems, metrics = per_layer(args, deadline)
        else:
            outs, problems, metrics = end_to_end(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    problems = ["(x%d) %s" % (n, p) for p, n in collections.Counter(problems).items()]
    if not metrics:
        print("error: no pass completed: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    for problem in problems:
        print("problem %s" % problem)
    result = {
        "correct": not problems,
        "attempted": sum(out["attempted"] for out in outs),
        "failed": sum(out["failed"] for out in outs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
