"""Run the full evaluation from the command line.

    python -m repro                 # every table and figure
    python -m repro fig2 table5     # a subset
    python -m repro --trace fig2    # + per-stage virtual-time profile
    python -m repro --profile fig9  # + call tree (perf-report style)
    python -m repro --list
    taskset -c 0 python -m repro    # serial, in this process

Each experiment prints the same rows/series the paper reports.  The
experiments run in parallel, one worker process per usable CPU (at most
one per experiment), each printing into its own buffer; the output
comes out in registry order, byte for byte what a serial run prints
(timing lines aside).  With one usable CPU — ``taskset -c 0`` — or one
experiment, everything runs inline.  ``--trace`` attaches a
:class:`~repro.sim.trace.TraceRecorder` per experiment, inside its
worker, and prints the profile (see :mod:`repro.tools.perf_report`);
``--profile`` also attaches a :class:`~repro.sim.profile.Profiler` and
prints the call tree.
"""

from __future__ import annotations

import sys

EXPERIMENTS = {
    "fig1": ("Figure 1: out-of-tree module churn",
             "repro.experiments.fig1_loc_churn"),
    "fig2": ("Figure 2: single-core forwarding by datapath",
             "repro.experiments.fig2_single_flow"),
    "table2": ("Table 2: AF_XDP optimization ladder",
               "repro.experiments.table2_optimizations"),
    "table3": ("Table 3: NSX production rule set",
               "repro.experiments.table3_ruleset"),
    "fig8": ("Figure 8: TCP throughput (NSX pipeline)",
             "repro.experiments.fig8_tcp_throughput"),
    "fig9": ("Figure 9 + Table 4: forwarding rate and CPU",
             "repro.experiments.fig9_forwarding"),
    "fig10": ("Figure 10: inter-host VM latency",
              "repro.experiments.fig10_latency"),
    "fig11": ("Figure 11: container latency",
              "repro.experiments.fig11_container_latency"),
    "table5": ("Table 5: XDP task complexity",
               "repro.experiments.table5_xdp_cost"),
    "fig12": ("Figure 12: multi-queue scaling",
              "repro.experiments.fig12_multiqueue"),
    "degradation": ("Robustness: degradation under injected faults",
                    "repro.experiments.degradation"),
    "upgrade": ("Robustness: crash-recovery downtime per datapath",
                "repro.experiments.upgrade"),
    "observer-effect": ("Observability: telemetry's throughput cost "
                        "by sampling rate",
                        "repro.experiments.observer_effect"),
    "matrix": ("Performance matrix: measured-rate sweep "
               "(own flags; see `matrix --help`)",
               "repro.perfmatrix.matrix"),
}


USAGE = """\
usage: python -m repro [--list] [--trace] [--profile] [experiment ...]
       python -m repro matrix [--quick|--full] [--out PATH] [...]

Reproduce the paper's tables and figures.  With no arguments, runs
every experiment.  Experiments run in parallel, one worker per usable
CPU, and print in registry order; `taskset -c 0 python -m repro` runs
them serially.  The ``matrix`` subcommand sweeps the automated
performance matrix (packet size x flows x datapath x topology) and
reports each cell's measured rate, the reduction fig9 prints; it takes
its own flags — see ``python -m repro matrix --help``.

options:
  -h, --help     show this message and exit
  -l, --list     list the available experiments
  -t, --trace    run each experiment under a TraceRecorder and print the
                 per-stage virtual-time profile afterwards
  -p, --profile  like --trace, plus a call-tree profiler; prints the
                 perf-report-style tree after each experiment
"""


def main(argv: "list[str]") -> int:
    if argv and argv[0] == "matrix":
        # The matrix harness owns its argv (grid subsetting, --out, ...);
        # everything after the subcommand is forwarded verbatim.
        from repro.perfmatrix.matrix import main as matrix_main

        return matrix_main(argv[1:])
    if "--help" in argv or "-h" in argv:
        print(USAGE)
        for key, (title, _module) in EXPERIMENTS.items():
            print(f"  {key:8s} {title}")
        return 0
    if "--list" in argv or "-l" in argv:
        for key, (title, _module) in EXPERIMENTS.items():
            print(f"  {key:8s} {title}")
        return 0
    with_profile = "--profile" in argv or "-p" in argv
    with_trace = with_profile or "--trace" in argv or "-t" in argv
    flags = [a for a in argv if a.startswith("-")]
    unknown_flags = [
        f for f in flags if f not in ("--trace", "-t", "--profile", "-p",
                                      "--list", "-l", "--help", "-h")
    ]
    if unknown_flags:
        print(f"unknown option(s): {', '.join(unknown_flags)}",
              file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    chosen = [a for a in argv if not a.startswith("-")]
    unknown = [a for a in chosen if a not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    from repro.sim.shard import Unit, run_units, usable_cpus

    plane = "profile" if with_profile else "trace" if with_trace else None
    # Wall seconds of each experiment on a 2-CPU host.  They only order
    # the queue, heaviest first, so the longest experiment never starts
    # last; the output is printed in registry order whatever the key.
    wall_s = {"matrix": 3.9, "fig9": 2.9, "table3": 1.5, "fig12": 1.4,
              "upgrade": 1.1, "fig8": 0.7}
    targets = chosen or list(EXPERIMENTS)
    order = sorted(range(len(targets)),
                   key=lambda i: -wall_s.get(targets[i], 0.3))
    units = [
        Unit(key=targets[i],
             runner="repro.tools.perf_report:render_experiment",
             params=dict(name=targets[i], plane=plane))
        for i in order
    ]
    texts = dict(zip(order, run_units(
        units, shards=min(usable_cpus(), len(units)))))
    for i in range(len(targets)):
        sys.stdout.write(texts[i])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
