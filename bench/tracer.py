"""Spans and counters for the traced run, recorded from the benchmark's side.

``Tracer.install()`` replaces public weilaut functions where they are looked
up (``report.solve``, ``endo.bareiss_determinant``, ...) with wrappers. Each
timed call records one span ``[name, start, end, parent]`` in memory, and the
counters named in the tables below are kept at the same boundaries. Nothing
under ``src/`` is edited; the patches live only in the traced process.

A span's self time is its duration minus the durations of its child spans.
Functions that are only counted record no span, so their time stays in the
caller's self time.
"""

import json
import time
from collections import Counter

from weilaut import endo, linalg, parsing, poly, published, report, solver, weil


def _add(key, size):
    def hook(counts, args, result):
        counts[key] += size(result)
    return hook


def _numeric(counts, args, result):
    counts["endo.numeric_calls"] += 1
    counts["endo.failing_pairs"] += len(result.failing_pairs)


def _bareiss(counts, args, result):
    counts["linalg.bareiss_calls"] += 1
    counts["linalg.bareiss_max_n"] = max(counts["linalg.bareiss_max_n"], len(args[0]))


def _solved(counts, args, result):
    counts["solver.families"] += len(result.families)
    counts["solver.contradictions"] += len(result.contradictions)
    counts["solver.residuals"] += len(result.residuals)


def _one(result):
    return 1


# span name, the places it is looked up, counter hook (or None)
TIMED = (
    ("parsing.parse", ((parsing, "parse_specfile"), (parsing, "parse_bindings")), None),
    ("quotient.buchberger", ((weil, "buchberger"),), _add("quotient.gb_size", lambda gb: len(gb.elements))),
    ("quotient.nf_table", ((weil, "nf_table"),), None),
    ("quotient.standard_monomials", ((weil, "standard_monomials"),), None),
    ("weil.build_algebra", ((report, "build_algebra"),), _add("weil.dim", lambda alg: alg.dim)),
    ("endo.generic_endo", ((report, "generic_endo"),), _add("endo.unknowns", lambda e: len(e.unknowns))),
    ("endo.constraint_system", ((report, "constraint_system"),), _add("endo.equations", lambda s: len(s.equations))),
    ("endo.extend_to_matrix", ((report, "extend_to_matrix"), (published, "extend_to_matrix")), None),
    ("endo.substitute", ((report, "substitute"), (published, "substitute")), None),
    ("endo.numeric_instantiate", ((endo, "numeric_instantiate"),), _numeric),
    # poly.resultant imports bareiss_determinant from linalg at call time
    ("linalg.bareiss", ((endo, "bareiss_determinant"), (linalg, "bareiss_determinant")), _bareiss),
    ("linalg.rref", ((weil, "rref"), (endo, "rref")), None),
    ("poly.repr", ((poly.Polynomial, "__repr__"),), _add("poly.repr_calls", _one)),
    ("solver.solve", ((report, "solve"),), _solved),
    ("report.family_determinants", ((report, "family_determinants"),), None),
    ("report.build_report", ((report, "build_report"),), None),
    ("report.canonical_json", ((report, "canonical_json"),), _add("report.json_bytes", lambda s: len(s.encode()))),
    ("published.build_discrepancies", ((report, "build_discrepancies"),), _add("published.discrepancies", len)),
)

# counter name, the places it is looked up
COUNTED = (
    ("poly.exact_div_calls", ((poly.Polynomial, "exact_div"),)),
    ("poly.resultant_calls", ((solver, "resultant"),)),
    ("solver.close_branch_calls", ((solver, "close_branch"),)),
    ("scalar.kth_root_in_field_calls", ((solver, "kth_root_in_field"),)),
)

class Tracer:
    """Spans in memory, split into segments (set-up, then one per pass)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.segments = []
        self.counts = Counter()

    def install(self):
        for name, places, hook in TIMED:
            for owner, attr in places:
                setattr(owner, attr, self.timed(name, getattr(owner, attr), hook))
        for name, places in COUNTED:
            for owner, attr in places:
                setattr(owner, attr, self.counted(name, getattr(owner, attr)))

    def segment(self, label):
        """Start a new segment; later spans and counts belong to it."""
        self.counts = Counter()
        self.segments.append((label, len(self.spans), self.counts))

    def timed(self, name, fn, hook):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """Per segment: label, self seconds per span name, and the counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ends = [first for _, first, _ in self.segments[1:]] + [len(self.spans)]
        out = []
        for (label, first, counts), last in zip(self.segments, ends):
            self_s = Counter()
            for i in range(first, last):
                name, start, end, _ = self.spans[i]
                self_s[name] += end - start - child[i]
            out.append({"label": label, "self_s": dict(self_s), "counts": dict(counts)})
        return out

    def write(self, path):
        """One JSON line per span: name, start, end (s from the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")
