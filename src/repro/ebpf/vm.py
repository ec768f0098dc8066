"""The eBPF machine: registers, memory regions and one run per packet.

Registers hold either 64-bit scalars or tagged :class:`Pointer` values into
named memory regions (packet data, the 512-byte stack, exposed map values,
the xdp_md context).  A run executes the program's compiled function
(:mod:`repro.ebpf.jit`), which calls back into this model for helpers,
map values and every access its fast paths do not inline.  Every
executed instruction charges ``ebpf_insn_ns`` to the attached
:class:`~repro.sim.cpu.ExecContext` — this is the sandbox overhead that
makes the eBPF datapath 10–20 % slower than native kernel code (§2.2.2)
and makes XDP program complexity cost throughput (§5.4, Table 5).

Runtime faults (out-of-bounds access, bad pointer arithmetic) raise
:class:`VmFault`; the XDP hook translates a fault into ``XDP_ABORTED``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ebpf.isa import to_s64, to_u64
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import Program
from repro.ebpf.verifier import STACK_SIZE
from repro.sim.cpu import ExecContext
from repro.sim.rng import make_rng


class VmFault(Exception):
    """A runtime safety violation; the program is aborted."""


class Pointer(NamedTuple):
    region: str
    offset: int


CTX_REGION = "ctx"
PKT_REGION = "pkt"
STACK_REGION = "stack"

#: xdp_md field offsets (as in the real uapi struct).
CTX_DATA = 0
CTX_DATA_END = 4
CTX_DATA_META = 8
CTX_INGRESS_IFINDEX = 12
CTX_RX_QUEUE_INDEX = 16
CTX_LEN = 20


class EbpfVm:
    """One program's machine state for runs over packets/contexts."""

    def __init__(
        self,
        program: Program,
        exec_ctx: Optional[ExecContext] = None,
        ktime_ns: int = 0,
    ) -> None:
        if not program.verified:
            raise VmFault(
                f"program {program.name!r} was not verified before running"
            )
        self.program = program
        self.exec_ctx = exec_ctx
        self.ktime_ns = ktime_ns
        self._rng = None
        self.redirect_target: Optional[Tuple] = None
        self.insns_executed = 0
        self.helper_calls = 0
        self.touched_pkt_data = False
        #: Outcome of the most recent :meth:`run`, exposed so the XDP
        #: layer can memoize and later re-charge an identical run.
        self.last_executed = 0
        self.last_helper_calls = 0
        self.last_charge_ns = 0.0
        self._regs: List[object] = [0] * 11
        self._regions: Dict[str, bytearray] = {
            STACK_REGION: bytearray(STACK_SIZE)
        }
        self._pkt: bytearray = bytearray()
        self._map_values: List[Tuple[BpfMap, bytes, str, bytes]] = []
        self._headroom = 0

    # ------------------------------------------------------------------
    # Register / memory model (used by helpers too).
    # ------------------------------------------------------------------
    @property
    def rng(self):
        # Lazy: seeding a Random is far more expensive than most program
        # runs, and only the prandom helper ever draws from it.  The seed
        # depends solely on the program name, so the stream is unchanged.
        rng = self._rng
        if rng is None:
            rng = self._rng = make_rng("ebpf-prandom", self.program.name)
        return rng

    def reg(self, index: int) -> object:
        return self._regs[index]

    def scalar_from_reg(self, index: int) -> int:
        value = self._regs[index]
        if not isinstance(value, int):  # a pointer or a map handle
            raise VmFault(f"r{index} holds a pointer where a scalar is needed")
        return to_u64(value)

    def scalar_signed_from_reg(self, index: int) -> int:
        return to_s64(self.scalar_from_reg(index))

    def map_from_reg(self, index: int) -> BpfMap:
        value = self._regs[index]
        if not isinstance(value, BpfMap):
            raise VmFault(f"r{index} does not hold a map handle")
        return value

    def _region_bytes(self, name: str) -> bytearray:
        if name == PKT_REGION:
            return self._pkt
        try:
            return self._regions[name]
        except KeyError:
            raise VmFault(f"dangling pointer into region {name!r}") from None

    def read_mem_via_pointer(self, ptr: object, size: int) -> bytearray:
        if not isinstance(ptr, Pointer):
            raise VmFault("memory access through a non-pointer")
        buf = self._region_bytes(ptr.region)
        if ptr.offset < 0 or ptr.offset + size > len(buf):
            raise VmFault(
                f"out-of-bounds read {ptr.region}[{ptr.offset}:{ptr.offset + size}]"
                f" (region size {len(buf)})"
            )
        return buf[ptr.offset : ptr.offset + size]

    def write_mem_via_pointer(self, ptr: object, data: bytes) -> None:
        if not isinstance(ptr, Pointer):
            raise VmFault("memory write through a non-pointer")
        if ptr.region == CTX_REGION:
            raise VmFault("the context is read-only")
        buf = self._region_bytes(ptr.region)
        if ptr.offset < 0 or ptr.offset + len(data) > len(buf):
            raise VmFault(
                f"out-of-bounds write {ptr.region}[{ptr.offset}:"
                f"{ptr.offset + len(data)}]"
            )
        buf[ptr.offset : ptr.offset + len(data)] = data

    def expose_map_value(self, bpf_map: BpfMap, key: bytes, value: bytes) -> Pointer:
        """Give the program a writable view of a map value."""
        name = f"mapval{len(self._map_values)}"
        self._regions[name] = bytearray(value)
        self._map_values.append((bpf_map, key, name, bytes(value)))
        return Pointer(name, 0)

    def adjust_pkt_head(self, delta: int) -> bool:
        """bpf_xdp_adjust_head: grow (delta<0) or shrink headroom."""
        if delta < 0:
            grow = -delta
            if grow > 256 - self._headroom:
                return False
            self._pkt[:0] = bytes(grow)
            self._headroom += grow
        else:
            if delta >= len(self._pkt):
                return False
            del self._pkt[:delta]
            self._headroom = max(0, self._headroom - delta)
        return True

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(
        self,
        pkt_data: bytes,
        ingress_ifindex: int = 0,
        rx_queue_index: int = 0,
    ) -> int:
        """Execute the program over a packet; returns r0 (the verdict).

        The program runs as its compiled function, translated on first
        use and again after its instructions or maps are rebound; a
        program the translator refuses raises
        :class:`~repro.ebpf.verifier.VerifierError` here, as it does at
        attach.
        """
        compiled = _jit.compiled_for(self.program)
        compiled.stats.jit_runs += 1
        return compiled.fn(self, pkt_data, ingress_ifindex, rx_queue_index)

    def pkt_bytes(self) -> bytes:
        """The (possibly rewritten) packet after a run."""
        return bytes(self._pkt)

    def _flush_map_values(self) -> None:
        for bpf_map, key, region, original in self._map_values:
            buf = self._regions.pop(region, None)
            # Only write back values the program actually modified: the
            # write-back of an untouched view is a no-op, and skipping it
            # keeps read-only lookups from bumping the map version.
            if buf is not None and bytes(buf) != original:
                bpf_map.update(key, bytes(buf))
        self._map_values.clear()

    def _load(self, ptr: object, off: int, width: int) -> object:
        if not isinstance(ptr, Pointer):
            raise VmFault("load through a non-pointer")
        if ptr.region == CTX_REGION:
            return self._load_ctx(ptr.offset + off)
        if ptr.region == PKT_REGION and not self.touched_pkt_data:
            # First touch of DMA'd data: the cache miss of §5.4 task B.
            self.touched_pkt_data = True
            if self.exec_ctx is not None:
                from repro.sim.costs import DEFAULT_COSTS as _C

                self.exec_ctx.charge(_C.dma_first_touch_ns,
                                     label="dma_first_touch")
        buf = self._region_bytes(ptr.region)
        start = ptr.offset + off
        if start < 0 or start + width > len(buf):
            raise VmFault(
                f"out-of-bounds load {ptr.region}[{start}:{start + width}] "
                f"(size {len(buf)})"
            )
        # Packet data is network order; stack/map data is little-endian
        # (host order), matching how real programs use ldx on each.
        order = "big" if ptr.region == PKT_REGION else "little"
        return int.from_bytes(buf[start : start + width], order)

    def _load_ctx(self, offset: int) -> object:
        if offset == CTX_DATA:
            return Pointer(PKT_REGION, 0)
        if offset == CTX_DATA_END:
            return Pointer(PKT_REGION, len(self._pkt))
        if offset == CTX_DATA_META:
            return Pointer(PKT_REGION, 0)
        if offset == CTX_INGRESS_IFINDEX:
            return self._ctx_meta[0]
        if offset == CTX_RX_QUEUE_INDEX:
            return self._ctx_meta[1]
        raise VmFault(f"bad ctx offset {offset}")

    def _store(self, ptr: object, off: int, width: int, value: int) -> None:
        if not isinstance(ptr, Pointer):
            raise VmFault("store through a non-pointer")
        order = "big" if ptr.region == PKT_REGION else "little"
        self.write_mem_via_pointer(
            Pointer(ptr.region, ptr.offset + off),
            value.to_bytes(width, order),
        )


# ----------------------------------------------------------------------
# Semantic primitives.  Module-level so the compiled code calls them for
# every case its generated fast paths do not inline.
# ----------------------------------------------------------------------
def branch_taken(pred: str, lhs: object, rhs: object) -> bool:
    if isinstance(lhs, Pointer) and isinstance(rhs, Pointer):
        if lhs.region != rhs.region:
            raise VmFault("comparing pointers into different regions")
        a, b = lhs.offset, rhs.offset
    else:
        # Pointer-vs-scalar comparisons are NULL checks in real programs;
        # a live pointer must compare as non-zero even at offset 0, so
        # give pointers (and map handles) a large synthetic base.
        def as_value(v: object) -> int:
            if isinstance(v, Pointer):
                return (1 << 48) + v.offset
            if isinstance(v, BpfMap):
                return 1 << 49
            return to_u64(int(v))  # type: ignore[arg-type]

        a, b = as_value(lhs), as_value(rhs)
    if pred == "jeq":
        return a == b
    if pred == "jne":
        return a != b
    if pred == "jgt":
        return a > b
    if pred == "jge":
        return a >= b
    if pred == "jlt":
        return a < b
    if pred == "jle":
        return a <= b
    if pred == "jset":
        return bool(a & b)
    if pred == "jsgt":
        return to_s64(a) > to_s64(b)
    if pred == "jsge":
        return to_s64(a) >= to_s64(b)
    raise VmFault(f"bad predicate {pred}")  # pragma: no cover


def alu(op: str, lhs: object, rhs: object) -> object:
    if op == "mov":
        return rhs
    if isinstance(lhs, BpfMap) or isinstance(rhs, BpfMap):
        raise VmFault(f"illegal arithmetic on a map handle: {op}")
    if isinstance(lhs, Pointer):
        if isinstance(rhs, Pointer):
            if op == "sub" and lhs.region == rhs.region:
                return to_u64(lhs.offset - rhs.offset)
            raise VmFault("illegal pointer/pointer arithmetic")
        if op == "add":
            return Pointer(lhs.region, lhs.offset + to_s64(int(rhs)))
        if op == "sub":
            return Pointer(lhs.region, lhs.offset - to_s64(int(rhs)))
        raise VmFault(f"illegal pointer arithmetic: {op}")
    if isinstance(rhs, Pointer):
        if op == "add":
            return Pointer(rhs.region, rhs.offset + to_s64(int(lhs)))
        raise VmFault(f"illegal pointer arithmetic: {op}")
    a, b = to_u64(int(lhs)), to_u64(int(rhs))
    if op == "add":
        return to_u64(a + b)
    if op == "sub":
        return to_u64(a - b)
    if op == "mul":
        return to_u64(a * b)
    if op == "div":
        return 0 if b == 0 else a // b  # eBPF defines div-by-zero as 0
    if op == "mod":
        return a if b == 0 else a % b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "lsh":
        return to_u64(a << (b & 63))
    if op == "rsh":
        return a >> (b & 63)
    if op == "arsh":
        return to_u64(to_s64(a) >> (b & 63))
    raise VmFault(f"bad ALU op {op}")  # pragma: no cover


# The translator builds on the model above, so it is imported last.
from repro.ebpf import jit as _jit  # noqa: E402
