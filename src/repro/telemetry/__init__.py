"""Datapath flow telemetry: sFlow sampling, IPFIX export, drop reasons.

The monitoring layer real OVS deployments are operated through, built
on the simulation's own primitives: sampling decisions come from
:mod:`repro.sim.rng` streams, every per-packet cost is charged in
virtual time from :mod:`repro.sim.costs`, flow timeouts expire on the
virtual clock, and the collector's totals reconcile *exactly* against
the conservation ledger.

The session object mirrors :mod:`repro.sim.faults` and
:mod:`repro.sim.trace`: a module global ``ACTIVE`` that hot paths read
with a single attribute load, ``None`` meaning "telemetry off" with
**zero** overhead — no charge, no RNG draw, no counter.  The identity
gate (``tests/integration/test_jit_equivalence.py``) byte-diffs ledgers,
counters and flamegraphs with telemetry absent vs installed-but-disabled
to pin that down::

    session = Telemetry(sflow=SflowConfig(rate=64),
                        ipfix=IpfixConfig(),
                        now_ns_fn=lambda: host.clock.now)
    with telemetry.monitoring(session):
        bench.drive(stream, packets)
    session.flush_all()
    assert session.reconcile(ledger) == []
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.telemetry.drops import DropReason, DropStage, reason_for_sink
from repro.telemetry.ipfix import (
    IpfixCollector,
    IpfixConfig,
    IpfixExporter,
)
from repro.telemetry.sflow import SflowConfig, SflowSample, SflowSampler

__all__ = [
    "ACTIVE",
    "DropReason",
    "DropStage",
    "IpfixCollector",
    "IpfixConfig",
    "IpfixExporter",
    "SflowConfig",
    "SflowSample",
    "SflowSampler",
    "Telemetry",
    "drop_event",
    "install",
    "monitoring",
    "reason_for_sink",
    "uninstall",
]


class Telemetry:
    """One monitoring session: an optional sampler + optional exporter.

    Either leg may be ``None``; a ``Telemetry()`` with both legs off is
    *inert* — installing it changes no observable byte (the off-mode
    identity the CI gate enforces).
    """

    def __init__(self, sflow: Optional[SflowConfig] = None,
                 ipfix: Optional[IpfixConfig] = None,
                 now_ns_fn: Optional[Callable[[], int]] = None) -> None:
        self.sflow = SflowSampler(sflow) if sflow is not None else None
        self.ipfix = IpfixExporter(ipfix) if ipfix is not None else None
        self.now_ns_fn = now_ns_fn if now_ns_fn is not None \
            else (lambda: 0)

    # ------------------------------------------------------------------
    # Hot-path hooks (call sites guard on ``telemetry.ACTIVE``).
    # ------------------------------------------------------------------
    def observe(self, point: str, pkt, ctx) -> None:
        """One packet crossed dispatch point ``point``.

        Charges the sampling rate test (and scrape/encode on a taken
        sample) and folds the packet into the IPFIX cache when the
        point is the exporter's observation point.
        """
        sampler = self.sflow
        if sampler is not None and point in sampler.rngs:
            sampler.observe(point, pkt.data, ctx, self.now_ns_fn)
        exporter = self.ipfix
        if exporter is not None and point == exporter.config.point:
            exporter.update(pkt, self.now_ns_fn(), ctx)

    def drop(self, reason: DropReason, n: int = 1,
             octets: int = 0) -> None:
        """``n`` packets were lost for ``reason`` (uncharged)."""
        exporter = self.ipfix
        if exporter is not None and n > 0:
            exporter.note_drop(reason, n, octets)

    # ------------------------------------------------------------------
    # End-of-run export and reconciliation.
    # ------------------------------------------------------------------
    @property
    def collector(self) -> Optional[IpfixCollector]:
        return self.ipfix.collector if self.ipfix is not None else None

    def flush_all(self, ctx=None) -> None:
        """Flush the IPFIX cache and drop records to the collector."""
        if self.ipfix is not None:
            self.ipfix.flush_all(ctx)

    def reconcile(self, ledger) -> List[str]:
        """Check the export totals against a conservation ledger.

        Returns a list of violated invariants (empty means the books
        balance).  ``ledger`` is duck-typed: anything with ``offered``
        and a ``sinks`` mapping (a
        :class:`repro.tools.conservation.PacketLedger`) works.  Call
        :meth:`flush_all` first — an unflushed cache is itself a
        violation.

        The invariants:

        * export accounting — collector totals plus the
          ``telemetry.collector_loss`` casualties equal everything the
          exporter flushed, for records, packets and octets, flows and
          drops alike;
        * flow totals — exported flow packets equal the ledger's
          offered load minus the pre-datapath drop legs (losses before
          the observation hook are exactly the packets IPFIX never saw);
        * drop legs — per conservation sink, the taxonomy's tallies
          equal the ledger's sink counts.
        """
        problems: List[str] = []
        exporter = self.ipfix
        if exporter is None:
            return ["ipfix is not enabled; nothing to reconcile"]
        if exporter.cache:
            problems.append(
                f"{len(exporter.cache)} flows still cached "
                "(call flush_all first)")
        collector = exporter.collector
        for kind in ("flow", "drop"):
            for unit in ("records", "packets", "octets"):
                got = getattr(collector, f"{kind}_{unit}") \
                    + getattr(exporter, f"lost_{kind}_{unit}")
                want = getattr(exporter, f"exported_{kind}_{unit}")
                if got != want:
                    problems.append(
                        f"{kind} {unit}: collector+lost={got} != "
                        f"exported={want}")
        pre = sum(n for reason, n in exporter.drop_packets.items()
                  if reason.stage is DropStage.PRE_DATAPATH)
        expect_flow_packets = ledger.offered - pre
        if exporter.exported_flow_packets != expect_flow_packets:
            problems.append(
                f"flow packets: exported={exporter.exported_flow_packets}"
                f" != offered({ledger.offered}) - pre_datapath({pre})")
        if exporter.exported_drop_packets != \
                sum(exporter.drop_packets.values()):
            problems.append("drop packets: exported != tallied")
        by_sink: Dict[str, int] = {}
        for reason, n in exporter.drop_packets.items():
            if reason.ledger_sink is not None and n:
                by_sink[reason.ledger_sink] = \
                    by_sink.get(reason.ledger_sink, 0) + n
        ledger_sinks = {name: n for name, n in ledger.sinks.items() if n}
        if by_sink != ledger_sinks:
            problems.append(
                f"drop legs differ: telemetry={by_sink!r} "
                f"ledger={ledger_sinks!r}")
        return problems


#: The installed session, or None (telemetry off).  Hot paths read this
#: attribute directly — keep it a plain module global.
ACTIVE: Optional[Telemetry] = None


def install(session: Telemetry) -> Telemetry:
    """Make ``session`` the active telemetry session.  Nesting is not
    supported: installing over a live session is an error (silently
    dropped samples would break the reconciliation audit)."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a Telemetry session is already installed")
    ACTIVE = session
    return session


def uninstall() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def monitoring(session: Telemetry) -> Iterator[Telemetry]:
    """Install ``session`` for the duration of the block."""
    install(session)
    try:
        yield session
    finally:
        uninstall()


def drop_event(reason: DropReason, n: int = 1, octets: int = 0) -> None:
    """Record a drop event on the active session, if any.

    For cold drop sites; per-packet paths should inline the
    ``telemetry.ACTIVE is None`` guard instead.
    """
    session = ACTIVE
    if session is not None:
        session.drop(reason, n, octets)
