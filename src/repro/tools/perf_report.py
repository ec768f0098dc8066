"""perf report for virtual time: render a trace ledger as a profile.

``ovs-appctl dpif-netdev/pmd-perf-show`` answers "where do the cycles
go" on a live vswitchd; this is the offline equivalent for the
simulator.  Feed it a :class:`~repro.sim.trace.TraceRecorder` and it
prints the per-stage breakdown, wait time, nested (inclusive) spans,
event counters and the conservation audit.

As a CLI it runs any ``python -m repro`` experiment under a fresh
recorder (with a call-tree profiler attached)::

    PYTHONPATH=src python -m repro.tools.perf_report fig9
    PYTHONPATH=src python -m repro.tools.perf_report fig9 --tree
    PYTHONPATH=src python -m repro.tools.perf_report fig9 --flame out.folded
    PYTHONPATH=src python -m repro.tools.perf_report table5 --json prof.json
    PYTHONPATH=src python -m repro.tools.perf_report fig2 table2 --diff

``--flame`` writes Brendan Gregg collapsed stacks (one ``path ns`` line
per call-tree node) ready for ``flamegraph.pl``; ``--diff`` profiles two
experiments and prints the per-path inclusive-ns deltas.  Exit status is
nonzero when the ledger fails its conservation audit.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.sim import profile, trace
from repro.sim.trace import TraceRecorder

USAGE = """\
usage: python -m repro.tools.perf_report EXPERIMENT [EXPERIMENT2] [options]

Run one experiment (any name `python -m repro --list` knows) under a
fresh trace recorder with a call-tree profiler attached, then render
the requested views.

options:
  -h, --help       show this message and exit
  --tree           print the perf-report-style call tree
  --min-share PCT  hide tree paths below this inclusive share (default 0.05)
  --flame [PATH]   write collapsed stacks for flamegraph.pl
                   (to PATH, or stdout when PATH is omitted)
  --json [PATH]    write the profile as JSON (tree + conservation legs)
  --diff           profile two experiments and print per-path deltas
                   (requires exactly two experiment names)
"""


def format_report(rec: TraceRecorder,
                  title: str = "virtual-time profile") -> str:
    """The full profile: stages, waits, nested spans, counters, audit."""
    lines: List[str] = [rec.render(title)]
    if rec.waits:
        lines.append("")
        lines.append("waits (wall time, no CPU):")
        for stage, (count, ns) in sorted(
            rec.waits.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(f"  {stage:24s} {ns:>14.0f} ns  (x{int(count)})")
    if rec.span_totals:
        lines.append("")
        lines.append("nested spans (inclusive):")
        for path, (count, ns) in sorted(rec.span_totals.items()):
            lines.append(f"  {path:24s} {ns:>14.0f} ns  (x{int(count)})")
    if rec.counters:
        lines.append("")
        lines.append("event counters:")
        for name, count in sorted(rec.counters.items()):
            lines.append(f"  {name:32s} {count:>12d}")
    lines.append("")
    status = "OK" if rec.conserved() else "VIOLATED"
    lines.append(
        f"conservation: spans {rec.total_ns:.0f} ns vs "
        f"cpu {rec.cpu_charged_ns:.0f} ns -> {status}"
    )
    return "\n".join(lines)


def _call_main(module) -> None:
    """Invoke an experiment's ``main`` with an empty argv.

    Experiment mains come in two shapes: ``main()`` and
    ``main(argv=None)`` where None means "read sys.argv".  The latter
    must get an explicit ``[]`` here, or this tool's own flags
    (``--flame``, ...) would leak into the experiment's parser.
    """
    import inspect

    main_fn = module.main
    try:
        takes_argv = bool(inspect.signature(main_fn).parameters)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        takes_argv = False
    if takes_argv:
        main_fn([])
    else:
        main_fn()


def profile_experiment(name: str,
                       with_profiler: bool = True) -> TraceRecorder:
    """Run one ``python -m repro`` experiment under a fresh recorder."""
    import importlib

    from repro.__main__ import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        )
    _title, module_name = EXPERIMENTS[name]
    module = importlib.import_module(module_name)
    if with_profiler:
        with profile.profiling() as rec:
            _call_main(module)
    else:
        with trace.recording() as rec:
            _call_main(module)
    return rec


def render_experiment(name: str, plane: Optional[str] = None) -> str:
    """Run one ``python -m repro`` experiment and return what it prints:
    the banner, its output, the ``plane``'s profile (``"trace"`` or
    ``"profile"``; ``None`` attaches nothing) and the timing line.

    The unit runner of the suite pool (DESIGN §17): the planes live and
    die inside the worker, and only this text crosses back.
    """
    import importlib
    import time
    from contextlib import redirect_stdout
    from io import StringIO

    from repro.__main__ import EXPERIMENTS

    title, module_name = EXPERIMENTS[name]
    out = StringIO()
    with redirect_stdout(out):
        print("=" * 72)
        print(title)
        print("=" * 72)
        started = time.time()
        if plane is None:
            _call_main(importlib.import_module(module_name))
        else:
            rec = profile_experiment(name,
                                     with_profiler=(plane == "profile"))
            print()
            print(format_report(rec, title=f"virtual-time profile: {name}"))
            if rec.profiler is not None:
                print()
                print(profile.render_tree(
                    rec.profiler.root, title=f"call tree: {name}",
                    min_share=0.05))
        print(f"[{name} done in {time.time() - started:.1f}s]\n")
    return out.getvalue()


def _optional_path(argv: List[str], flag: str) -> "tuple[bool, Optional[str]]":
    """Consume ``flag [PATH]`` from argv: (present, path-or-None)."""
    if flag not in argv:
        return False, None
    i = argv.index(flag)
    argv.pop(i)
    if i < len(argv) and not argv[i].startswith("-"):
        return True, argv.pop(i)
    return True, None


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--help" in argv or "-h" in argv:
        print(USAGE)
        return 0
    want_flame, flame_path = _optional_path(argv, "--flame")
    want_json, json_path = _optional_path(argv, "--json")
    want_tree = "--tree" in argv
    if want_tree:
        argv.remove("--tree")
    want_diff = "--diff" in argv
    if want_diff:
        argv.remove("--diff")
    min_share = 0.05
    if "--min-share" in argv:
        i = argv.index("--min-share")
        argv.pop(i)
        try:
            min_share = float(argv.pop(i))
        except (IndexError, ValueError):
            print("--min-share needs a number", file=sys.stderr)
            return 2
    unknown = [a for a in argv if a.startswith("-")]
    if unknown:
        print(f"unknown option(s): {', '.join(unknown)}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    names = argv or ["fig2"]
    if want_diff and len(names) != 2:
        print("--diff needs exactly two experiment names", file=sys.stderr)
        return 2
    if not want_diff and len(names) != 1:
        print("one experiment at a time (or use --diff)", file=sys.stderr)
        return 2

    try:
        recs = [profile_experiment(name) for name in names]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    if want_diff:
        a, b = (rec.profiler.root.to_dict() for rec in recs)
        print()
        print(profile.diff_profiles(a, b, names[0], names[1]))
        return 0 if all(rec.conserved() for rec in recs) else 1

    rec = recs[0]
    name = names[0]
    print()
    print(format_report(rec, title=f"virtual-time profile: {name}"))
    if want_tree:
        print()
        print(profile.render_tree(
            rec.profiler.root,
            title=f"call tree: {name}",
            min_share=min_share,
        ))
    if want_flame:
        _emit(profile.collapse(rec.profiler.root), flame_path)
    if want_json:
        _emit(profile.profile_json(rec), json_path)
    return 0 if rec.conserved() else 1


if __name__ == "__main__":
    raise SystemExit(main())
