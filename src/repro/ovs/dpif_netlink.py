"""dpif-netlink: the traditional kernel-module datapath from userspace.

ovs-vswitchd talks to :class:`~repro.kernel.ovs_module.KernelDatapath`
over (simulated) netlink: misses arrive as upcalls, the translator runs,
and the resulting megaflow is installed back into the kernel — Figure 7a.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.kernel.kernel import Kernel
from repro.kernel.netdev import NetDevice
from repro.kernel.ovs_module import KernelDatapath, Upcall
from repro.net.addresses import MacAddress
from repro.net.flow import FlowKey
from repro.ovs.ofproto import TranslationError
from repro import telemetry
from repro.sim import trace
from repro.sim.cpu import ExecContext
from repro.telemetry.drops import DropReason


class DpifNetlink:
    def __init__(self, kernel: Kernel, name: str = "ovs-system") -> None:
        self.kernel = kernel
        self.dp: KernelDatapath = kernel.create_datapath(name)
        self.dp.upcall_handler = self._handle_upcall
        #: The slow path: key -> (actions, mask) or None to drop.
        self.upcall_fn: Optional[
            Callable[[FlowKey, Optional[ExecContext]], Optional[Tuple]]
        ] = None
        self.n_installed_flows = 0
        #: Upcalls whose translation failed; the packet was dropped.
        self.n_failed_upcalls = 0

    def sinks(self) -> Dict[DropReason, int]:
        """Misses that died on the way up (``dp.n_lost``) or in a failed
        translation, and every drop inside the module itself."""
        return {DropReason.KERNEL_UPCALL_LOST: self.dp.n_lost,
                DropReason.KERNEL_UPCALL_FAILED: self.n_failed_upcalls,
                **self.dp.dropped}

    # -- ports ------------------------------------------------------------
    def add_port(self, device: NetDevice) -> int:
        return self.dp.add_port(device).port_no

    def add_internal_port(self, name: str, mac: MacAddress) -> Tuple[int, object]:
        vport, device = self.dp.add_internal_port(name, mac)
        return vport.port_no, device

    def add_tunnel_port(self, name: str) -> int:
        return self.dp.add_tunnel_port(name).port_no

    def del_port(self, name: str) -> None:
        self.dp.del_port(name)

    def port_no(self, name: str) -> int:
        return self.dp.port_no(name)

    def port_device(self, port_no: int):
        port = self.dp.ports.get(port_no)
        return port.device if port else None

    def flow_flush(self) -> None:
        self.dp.flow_flush()

    # -- crash/restart ------------------------------------------------------
    def detach_handler(self) -> Optional[Callable]:
        """ovs-vswitchd died: its netlink sockets close, so misses have
        nowhere to go — the kernel keeps forwarding megaflow hits and
        counts new-flow misses in the ``lost:`` column (``dp.n_lost``).
        Returns the detached handler so the supervisor can re-attach it
        after recovery."""
        fn, self.upcall_fn = self.upcall_fn, None
        return fn

    def attach_handler(self, fn: Callable) -> None:
        """The restarted daemon re-registered its upcall sockets.  The
        kernel flow table and netfilter conntrack were never touched —
        a vswitchd restart with flow-restore keeps the megaflows warm
        (the paper's §6 kernel-vs-userspace contrast)."""
        self.upcall_fn = fn

    # -- upcalls -----------------------------------------------------------
    def _handle_upcall(self, upcall: Upcall, ctx: ExecContext) -> None:
        if self.upcall_fn is None:
            # No handler thread registered: the packet the kernel sent
            # up dies here.  Real netlink accounts this in the
            # ``lost:`` column of dpctl/show rather than no-opping.
            self.dp.n_lost += 1
            telemetry.drop_event(DropReason.KERNEL_UPCALL_LOST,
                                 octets=len(upcall.pkt.data))
            return
        try:
            result = self.upcall_fn(upcall.key, ctx)
        except TranslationError:
            # A failed xlate drops and counts this packet only; the
            # kernel goes on with the rest of its poll.
            self.n_failed_upcalls += 1
            trace.count("dp.upcall_xlate_errors")
            telemetry.drop_event(DropReason.KERNEL_UPCALL_FAILED,
                                 octets=len(upcall.pkt.data))
            return
        if result is None:
            return
        actions, mask = result
        # Install the megaflow so subsequent packets stay in the kernel,
        # then execute the actions for the packet that missed.
        self.dp.flow_put(upcall.key, mask, tuple(actions))
        self.n_installed_flows += 1
        self.dp.execute_actions(upcall.pkt, tuple(actions), ctx)
