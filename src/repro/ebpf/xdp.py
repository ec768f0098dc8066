"""XDP attach semantics and verdicts.

An XDP program runs in the NIC driver on every received packet, *before*
an sk_buff is allocated (§2.2.3).  The driver interprets the verdict:

* ``DROP`` — recycle the buffer immediately (Table 5 task A),
* ``PASS`` — proceed into the normal kernel stack (skb allocation etc.),
* ``TX`` — bounce the (possibly rewritten) frame back out the same NIC,
* ``REDIRECT`` — send it to another device (devmap) or to an AF_XDP
  socket (xskmap), the paper's path to userspace,
* ``ABORTED`` — the program faulted; the packet is dropped and a trace
  event fires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Tuple

from repro.ebpf import jit as _jit
from repro.ebpf.program import Program
from repro.ebpf.vm import EbpfVm, VmFault
from repro.sim import costs as _costs
from repro.sim import fastpath
from repro.sim import faults as _faults
from repro.sim import trace as _trace
from repro.sim.cpu import ExecContext
from repro.telemetry.drops import DropReason

_map_version = attrgetter("version")


class XdpAction(enum.IntEnum):
    ABORTED = 0
    DROP = 1
    PASS = 2
    TX = 3
    REDIRECT = 4


#: A program's return value -> its action, for the values that name one.
_ACTIONS = tuple(XdpAction)


def verdict_drop_reason(action: XdpAction) -> Optional[DropReason]:
    """Taxonomy reason when a verdict discards the frame, else None.

    DROP and ABORTED both recycle the buffer in place; drivers do not
    distinguish them in drop accounting and neither does the taxonomy.
    Note the sampling hook for the "xdp" point lives at the *dispatch*
    site (:meth:`repro.kernel.nic.PhysicalNic.service_queue`), never
    inside :meth:`XdpContext.run` — runs are memoized and replayed, and
    a replay must re-issue exactly the charges of a live run.
    """
    if action is XdpAction.DROP or action is XdpAction.ABORTED:
        return DropReason.NIC_XDP_DROP
    return None


@dataclass(slots=True)
class XdpVerdict:
    """Everything the driver needs to act on a program run."""

    action: XdpAction
    data: bytes
    #: ("map", map_obj, slot) or ("ifindex", n) when action == REDIRECT.
    redirect: Optional[Tuple] = None
    insns_executed: int = 0
    #: The program read the packet data (it is now cache-warm).
    touched_data: bool = False


class XdpContext:
    """A program attached at a driver hook, ready to run per packet.

    Running the program is by far the slowest part of the simulated
    driver, so identical runs are memoized: a run over the same frame and
    context metadata, with every program map at the same version and the
    same cost table, must produce the same verdict and the same charges.
    A replay re-issues exactly the charge sequence a live run would have
    made (setup, first-touch, aggregate insn+helper cost) and the same
    trace counters — observables stay byte-identical.  Runs that fault,
    return unknown verdicts, or mutate a map are never memoized; the
    prandom helper is deterministic per run (the VM seeds a fresh RNG
    from the program name), so it needs no special casing.
    """

    #: Memo entries kept per attached program before a full clear.
    MEMO_MAX = 8192
    #: After this many consecutive misses the memo stands aside for a
    #: bypass window before probing again: on all-distinct traffic
    #: (every frame its own flow) the key build, lookup, and store are
    #: pure overhead on top of compiled execution.  The window doubles
    #: while probes stay fruitless (up to MEMO_BYPASS_MAX) and resets on
    #: the first hit, so cyclic traffic keeps full replay service while
    #: diverse traffic converges to near-zero memo overhead.  Replays
    #: and executions are observably identical, so the policy can never
    #: change a ledger byte — only wall-clock time.
    MEMO_MISS_LIMIT = 256
    MEMO_BYPASS_WINDOW = 256
    MEMO_BYPASS_MAX = 8192

    def __init__(self, program: Program) -> None:
        if not program.verified:
            raise ValueError(
                f"refusing to attach unverified program {program.name!r}"
            )
        # Load-time JIT: a program the translator refuses never attaches.
        _jit.compiled_for(program)
        self.program = program
        #: (data, ifindex, rx_queue, ktime) -> (tag, verdict,
        #: helper_calls, charge_ns).  The verdict object itself is
        #: shared across replays; consumers treat verdicts as read-only.
        self._memo: Dict[Tuple, Tuple] = {}
        self._memo_misses = 0
        self._memo_bypass = 0
        self._memo_window = self.MEMO_BYPASS_WINDOW

    def run(
        self,
        data: bytes,
        exec_ctx: Optional[ExecContext] = None,
        ingress_ifindex: int = 0,
        rx_queue_index: int = 0,
        ktime_ns: int = 0,
    ) -> XdpVerdict:
        """Run the program over one frame; never raises for program bugs."""
        # Profiler-only frame per attached program: this is what lets a
        # profile split Table 5's XDP cost by program (A-D) instead of
        # one undifferentiated "ebpf" bucket.
        rec = _trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is None:
            return self._run(data, exec_ctx, ingress_ifindex,
                             rx_queue_index, ktime_ns)
        prof.enter(f"xdp:{self.program.name}")
        try:
            return self._run(data, exec_ctx, ingress_ifindex,
                             rx_queue_index, ktime_ns)
        finally:
            prof.exit_()

    def _run(
        self,
        data: bytes,
        exec_ctx: Optional[ExecContext] = None,
        ingress_ifindex: int = 0,
        rx_queue_index: int = 0,
        ktime_ns: int = 0,
    ) -> XdpVerdict:
        costs = _costs.DEFAULT_COSTS

        plan = _faults.ACTIVE
        if plan is not None and plan.should_fire("ebpf.map_lookup_fault"):
            # bpf_map_lookup_elem returned NULL under pressure: a robust
            # program falls through to XDP_PASS so the kernel slow path
            # carries the packet instead of the program aborting.  The
            # setup and the failed lookup were still paid; checked
            # *before* the memo so a faulted run is never replayed.
            if exec_ctx is not None:
                exec_ctx.charge(costs.xdp_ctx_setup_ns, label="xdp_setup")
                exec_ctx.charge(costs.ebpf_map_lookup_ns, label="ebpf")
            rec = _trace.ACTIVE
            if rec is not None:
                rec.count("ebpf.map_lookup_faults")
                rec.count("ebpf.runs")
            return XdpVerdict(XdpAction.PASS, data)

        memo_key = tag = None
        if fastpath.ENABLED and self._memo_bypass:
            self._memo_bypass -= 1
        elif fastpath.ENABLED:
            memo_key = (data, ingress_ifindex, rx_queue_index, ktime_ns)
            # The tag: every map's version, the cost table's, and the
            # program token, which pins the memo to this exact
            # instruction stream — swapping the attached program (or
            # rebinding its insns) can never replay a stale verdict.
            program = self.program
            token = program._jit_token
            if token is None or token[0] is not program.insns:
                _jit.program_token(program)
                token = program._jit_token
            tag = (tuple(map(_map_version, program.maps.values())),
                   _costs.VERSION, token[1])
            hit = self._memo.get(memo_key)
            if hit is not None and hit[0] == tag:
                self._memo_misses = 0
                self._memo_window = self.MEMO_BYPASS_WINDOW
                _, verdict, helper_calls, charge_ns = hit
                if exec_ctx is not None:
                    exec_ctx.charge(costs.xdp_ctx_setup_ns, label="xdp_setup")
                    if verdict.touched_data:
                        exec_ctx.charge(costs.dma_first_touch_ns,
                                        label="dma_first_touch")
                    exec_ctx.charge(charge_ns, label="ebpf")
                rec = _trace.ACTIVE
                if rec is not None:
                    rec.count("ebpf.insns_retired", verdict.insns_executed)
                    if helper_calls:
                        rec.count("ebpf.helper_calls", helper_calls)
                    rec.count("ebpf.runs")
                return verdict
            self._memo_misses += 1
            if self._memo_misses >= self.MEMO_MISS_LIMIT:
                self._memo_misses = 0
                self._memo_bypass = self._memo_window
                self._memo_window = min(self._memo_window * 2,
                                        self.MEMO_BYPASS_MAX)

        if exec_ctx is not None:
            exec_ctx.charge(costs.xdp_ctx_setup_ns, label="xdp_setup")
        # A memo miss runs the compiled program; a replay re-issues
        # exactly that run's charges and counters.
        vm = EbpfVm(self.program, exec_ctx=exec_ctx, ktime_ns=ktime_ns)
        try:
            verdict = vm.run(
                data,
                ingress_ifindex=ingress_ifindex,
                rx_queue_index=rx_queue_index,
            )
        except VmFault:
            return XdpVerdict(XdpAction.ABORTED, data)
        if verdict >= len(_ACTIONS):
            # Unknown verdicts are treated as ABORTED by drivers.
            return XdpVerdict(XdpAction.ABORTED, data)
        pkt = vm._pkt
        result = XdpVerdict(
            _ACTIONS[verdict],
            # A frame the program left alone comes back as the caller's
            # own bytes object, so the driver can forward it by identity.
            data if pkt == data else bytes(pkt),
            redirect=vm.redirect_target,
            insns_executed=vm.insns_executed,
            touched_data=vm.touched_pkt_data,
        )
        if memo_key is not None and tag[0] == tuple(
                map(_map_version, self.program.maps.values())):
            # The run left its maps untouched (the cost table and the
            # program cannot change mid-run, so only the version vector
            # needs rechecking): it is a pure function of the memo key
            # and may be replayed.
            if len(self._memo) >= self.MEMO_MAX:
                self._memo.clear()
            self._memo[memo_key] = (
                tag, result, vm.last_helper_calls, vm.last_charge_ns,
            )
        return result
