"""The tc (traffic control) ingress hook for eBPF programs.

§2.2.2's eBPF OVS datapath attaches here, not at XDP: the program runs
*after* sk_buff allocation, inside the normal stack path — which is why it
can at best match the kernel module's performance and in practice runs
10–20 % slower due to the sandbox's per-instruction cost (Figure 2).

Verdicts follow tc semantics: TC_ACT_OK passes to the stack, TC_ACT_SHOT
drops, TC_ACT_REDIRECT sends out another device (the program calls the
redirect helper first).
"""

from __future__ import annotations

from typing import Optional

from repro.ebpf import jit as _jit
from repro.ebpf.program import Program
from repro.ebpf.vm import EbpfVm, VmFault
from repro.kernel.netdev import NetDevice
from repro.net.packet import Packet
from repro.sim import trace
from repro.sim.cpu import ExecContext

TC_ACT_OK = 0
TC_ACT_SHOT = 2
TC_ACT_REDIRECT = 7


class TcIngressHook:
    """Attach an eBPF program at a device's tc ingress."""

    def __init__(self, device: NetDevice, program: Program, namespace) -> None:
        if not program.verified:
            raise ValueError("refusing to attach an unverified program")
        # Load-time JIT: a program the translator refuses never attaches.
        _jit.compiled_for(program)
        self.device = device
        self.program = program
        self.ns = namespace
        self._fallback = device.rx_handler
        device.set_rx_handler(self._ingress)
        self.n_ok = 0
        self.n_shot = 0
        self.n_redirect = 0

    def detach(self) -> None:
        self.device.set_rx_handler(self._fallback)

    def _ingress(self, pkt: Packet, ctx: ExecContext) -> None:
        # tc runs on the skb the driver already allocated for this frame;
        # the program's run is its only extra charge.
        # Profiler-only frame per program, so a call tree splits tc cost
        # by program just like the xdp: frames do.
        rec = trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter(f"tc:{self.program.name}")
        try:
            vm = EbpfVm(self.program, exec_ctx=ctx)
            try:
                verdict = vm.run(pkt.data,
                                 ingress_ifindex=self.device.ifindex)
            except VmFault:
                self.n_shot += 1
                return
        finally:
            if prof is not None:
                prof.exit_()
        data = vm.pkt_bytes()
        if vm.redirect_target is not None:
            self.n_redirect += 1
            self._redirect(pkt.with_data(data), vm.redirect_target, ctx)
            return
        if verdict != TC_ACT_OK:
            # SHOT, UNSPEC, and anything unknown all stop the packet here.
            self.n_shot += 1
            return
        self.n_ok += 1
        if self._fallback is not None:
            self._fallback(pkt.with_data(data), ctx)

    def _redirect(self, pkt: Packet, target, ctx: ExecContext) -> None:
        if target[0] == "ifindex":
            ifindex: Optional[int] = target[1]
        else:  # devmap
            _, bpf_map, slot = target
            ifindex = bpf_map.get_dev(slot)
        if ifindex is None:
            return
        device = self.ns.device_by_ifindex(ifindex)
        if device is not None:
            device.transmit(pkt, ctx)
