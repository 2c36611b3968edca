"""One benchmark process: set up a workload in a fresh interpreter, then time
passes over its operations while sampling a fixed reference loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--spans PATH]

Prints one JSON object on stdout. bench/run.py starts it and turns its
output into metrics.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC)

# The reference loop, in the benchmark's own code: the sparse product of two
# fixed 12-term polynomials in four variables with Fraction coefficients,
# about 0.5 ms on a 2-core VM.
_terms = random.Random(5)
REF_FACTORS = [
    {
        tuple(_terms.randint(0, 3) for _ in range(4)): Fraction(_terms.randint(-9, 9), _terms.randint(1, 4))
        for _ in range(12)
    }
    for _ in range(2)
]


def reference_loop():
    left, right = REF_FACTORS
    product = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = product.get(e)
            product[e] = ca * cb if c is None else c + ca * cb
    return product


def time_reference(runs):
    """Mean seconds of one run of the reference loop after one untimed run
    to warm it up, the collector off."""
    gc.disable()
    reference_loop()
    start = time.perf_counter()
    for _ in range(runs):
        reference_loop()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed / runs


# Set-up is timed from here: importing weilaut, then workloads.setup().
# The reference loop is timed just before and just after it, so set-up can
# be scaled to a fixed machine speed like the passes are.
REF_BURST = 20
REF_BEFORE_SETUP = time_reference(REF_BURST)
T0 = time.perf_counter()
import weilaut  # noqa: E402

if not os.path.abspath(weilaut.__file__).startswith(os.path.join(SRC, "weilaut") + os.sep):
    sys.exit("error: weilaut was imported from %s, not from %s" % (weilaut.__file__, SRC))

import expected  # noqa: E402
import workloads  # noqa: E402

# an operation running longer than this counts as failed
OP_TIMEOUT_S = 20.0
# stop a pass that is still running this long after the measuring window
OVERRUN_S = 40.0
# CPU seconds between two runs of the reference loop during a pass
SAMPLE_EVERY_S = 0.01

class RefSampler:
    """Runs the reference loop every SAMPLE_EVERY_S of CPU time while armed.

    Shared machines have slow and fast spells of several seconds that slow
    the pipeline and the loop alike. Sampled during a pass, the loop
    measures the speed the pass itself ran at; timed only before and after
    a pass, it misses changes within the pass. Time spent in the loop is
    kept apart and taken out of the pass time.
    """

    def __init__(self, loop):
        self.loop = loop
        self.answer = reference_loop()
        self.spent = 0.0
        self.runs = 0
        signal.signal(signal.SIGVTALRM, self._tick)

    def arm(self):
        self.spent = 0.0
        self.runs = 0
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        product = self.loop()
        self.spent += time.perf_counter() - start
        self.runs += 1
        if collecting:
            gc.enable()
        if product != self.answer:
            raise AssertionError("reference loop gave a different answer")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded %g s" % OP_TIMEOUT_S)


class Tally:
    """Attempted and failed operations, undecided reports, problem messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports = 0
        self.undecided = 0
        self.regressed = set()
        self.problems = []

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def judge(self, group, problems, undecided, is_report):
        if problems:
            self.fail("; ".join(problems))
        if is_report:
            self.reports += 1
        if undecided:
            self.undecided += 1
            if group.replace("_rev", "") not in expected.UNDECIDED_AT_SEED:
                self.regressed.add(group)


def run_op(op, tally, sampler, deadline):
    """Run one operation under the timeout; returns its own seconds or None."""
    tally.attempted += 1
    signal.setitimer(signal.ITIMER_REAL, min(OP_TIMEOUT_S, max(deadline - time.perf_counter(), 0.001)))
    spent = sampler.spent
    try:
        start = time.perf_counter()
        out = op.run()
        elapsed = time.perf_counter() - start
    except Exception as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tally.fail("%s: %s: %s" % (op.group, type(exc).__name__, exc))
        return None
    signal.setitimer(signal.ITIMER_REAL, 0)
    problems, undecided = op.check(out)
    tally.judge(op.group, problems, undecided, op.is_report)
    return elapsed - (sampler.spent - spent)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        tracer.segment("setup")
    work = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    setup_ref_s = (REF_BEFORE_SETUP + time_reference(REF_BURST)) / 2

    tally = Tally()
    tally.reports += work.algebras
    for name in work.undecided:
        tally.judge(name, [], True, False)
    ops = list(work.ops)
    loop = reference_loop
    if tracer is not None:
        for op in ops:
            op.run = tracer.timed("op." + op.group, op.run, None)
        # a span of its own keeps the loop out of the layers' self time
        loop = tracer.timed("bench.reference_loop", loop, None)
    sampler = RefSampler(loop)
    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)
    passes = []
    window_end = time.perf_counter() + args.seconds
    hard_end = window_end + OVERRUN_S
    while True:
        rng.shuffle(ops)
        gc.collect()
        if tracer is not None:
            tracer.segment("pass%d" % (len(passes) + 1))
        op_s = {}
        complete = True
        sampler.arm()
        for op in ops:
            if time.perf_counter() > hard_end:
                complete = False
                break
            elapsed = run_op(op, tally, sampler, hard_end)
            if elapsed is None:
                complete = False
            else:
                op_s[op.group] = op_s.get(op.group, 0.0) + elapsed
        sampler.disarm()
        if complete and sampler.runs:
            passes.append({
                "seconds": sum(op_s.values()),
                "ref_s": sampler.spent / sampler.runs,
                "op_s": op_s,
            })
        if time.perf_counter() >= window_end:
            break

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reports": tally.reports,
        "undecided": tally.undecided,
        "regressed": sorted(tally.regressed),
        "problems": tally.problems,
    }
    if tracer is not None:
        out["segments"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
