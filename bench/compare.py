#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py --out``: A (parent) and B.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric with both medians, their
quartiles and the metric's bound.  The verdict of a row is

``ok``          B's median is no worse than A's by more than the bound;
``REGRESSION``  it is worse by more than the bound (for an exact metric:
                it differs at all, beyond 1e-9 relative);
``unresolved``  the repeat spread of A or B (interquartile range over
                median) is wider than the bound, so the medians cannot
                settle it - unless the two sets do not overlap: every
                run of B better than every run of A is ``ok``, every
                run of B worse and the median past the bound is a
                ``REGRESSION``.

Exact metrics belong to one seed: between sets of different seeds they
are shown but not judged.  The exit code reflects regressions only: an
unresolved row asks for more repeats, it does not fail the comparison.
The same command checks a tree against itself (A/A) and a change against
its parent.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import spread  # noqa: E402


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B's value is than A's, as a share of A's."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(a: Dict, b: Dict) -> Tuple[str, float]:
    """Judge one metric of one workload; returns (verdict, worse_by)."""
    better, bound = a["better"], a["bound"]
    worse = worse_by(a["median"], b["median"], better)
    if a["exact"]:
        return ("ok" if abs(worse) <= bound else "REGRESSION"), worse
    if max(spread(a["values"]), spread(b["values"])) > bound > 0:
        sign = 1 if better == "higher" else -1
        va = [sign * v for v in a["values"]]
        vb = [sign * v for v in b["values"]]
        if min(vb) > max(va):
            return "ok", worse
        if max(vb) < min(va) and worse > bound:
            return "REGRESSION", worse
        return "unresolved", worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def compare(doc_a: Dict, doc_b: Dict) -> Tuple[List[str], int]:
    lines: List[str] = []
    regressions = 0
    same_seed = doc_a["seed"] == doc_b["seed"]
    header = (f"{'workload':16s} {'metric':16s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>7s}  "
              f"verdict")
    lines.append(header)
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:16s} missing from B")
            regressions += 1
            continue
        for metric, a in wa["metrics"].items():
            b = wb["metrics"].get(metric)
            if b is None:
                lines.append(f"{name:16s} {metric:16s} missing from B")
                regressions += 1
                continue
            what, worse = verdict(a, b)
            if a["exact"] and not same_seed:
                what = "other seed"  # exact values belong to one seed
            regressions += what == "REGRESSION"

            def cell(m: Dict) -> str:
                return (f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                        f" n={m['n']}")

            bound = "exact" if a["exact"] else f"{100 * a['bound']:.0f}%"
            lines.append(
                f"{name:16s} {metric:16s} {cell(a):>34s} {cell(b):>34s} "
                f"{100 * worse:+8.2f}% {bound:>7s}  {what}")
    return lines, regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    for label, doc in (("A", doc_a), ("B", doc_b)):
        host = doc["host"]
        print(f"{label}: seed={doc['seed']} repeats={doc['repeats']} "
              f"seconds={doc['seconds']} rev={host['git_rev'][:12]} "
              f"{host['cpu_model']} x{host['nproc']} py{host['python']}")
    if doc_a["seed"] != doc_b["seed"]:
        print("note: the seeds differ, so exact metrics are not compared")
    lines, regressions = compare(doc_a, doc_b)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
