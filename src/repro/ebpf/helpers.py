"""eBPF helper functions callable from programs.

Helper ids mirror the real kernel's numbering where one exists.  Each helper
is implemented against the VM's register/memory model; helpers are where an
eBPF program touches maps, redirects packets, or adjusts headroom.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.ebpf.maps import DevMap
from repro.net.checksum import internet_checksum

if TYPE_CHECKING:  # pragma: no cover
    from repro.ebpf.vm import EbpfVm

#: ``XdpAction.REDIRECT``: :mod:`repro.ebpf.xdp` imports this module
#: (through the VM), so the verdict is spelled as its value here.
XDP_REDIRECT = 4


class Helper(enum.IntEnum):
    MAP_LOOKUP_ELEM = 1
    MAP_UPDATE_ELEM = 2
    MAP_DELETE_ELEM = 3
    KTIME_GET_NS = 5
    GET_PRANDOM_U32 = 7
    CSUM_DIFF = 28
    REDIRECT = 23
    XDP_ADJUST_HEAD = 44
    REDIRECT_MAP = 51


def _helper_map_lookup(vm: "EbpfVm") -> object:
    bpf_map = vm.map_from_reg(1)
    key = vm.read_mem_via_pointer(vm.reg(2), bpf_map.key_size)
    value = bpf_map.lookup(bytes(key))
    if value is None:
        return 0
    return vm.expose_map_value(bpf_map, bytes(key), value)


def _helper_map_update(vm: "EbpfVm") -> object:
    bpf_map = vm.map_from_reg(1)
    key = vm.read_mem_via_pointer(vm.reg(2), bpf_map.key_size)
    value = vm.read_mem_via_pointer(vm.reg(3), bpf_map.value_size)
    try:
        bpf_map.update(bytes(key), bytes(value))
    except Exception:
        return -1 & ((1 << 64) - 1)
    return 0


def _helper_map_delete(vm: "EbpfVm") -> object:
    bpf_map = vm.map_from_reg(1)
    key = vm.read_mem_via_pointer(vm.reg(2), bpf_map.key_size)
    try:
        bpf_map.delete(bytes(key))
    except Exception:
        return -1 & ((1 << 64) - 1)
    return 0


def _helper_ktime(vm: "EbpfVm") -> object:
    return vm.ktime_ns


def _helper_prandom(vm: "EbpfVm") -> object:
    return vm.rng.getrandbits(32)


def _helper_redirect(vm: "EbpfVm") -> object:
    ifindex = vm.scalar_from_reg(1)
    vm.redirect_target = ("ifindex", ifindex)
    return XDP_REDIRECT


def _helper_redirect_map(vm: "EbpfVm") -> object:
    bpf_map = vm.map_from_reg(1)
    slot = vm.scalar_from_reg(2)
    flags = vm.scalar_from_reg(3)
    if isinstance(bpf_map, DevMap) and bpf_map.get_dev(slot) is None:
        # No device/socket in that slot: return the fallback action carried
        # in the low bits of flags (bpf_redirect_map's documented contract).
        return flags & 0x3
    vm.redirect_target = ("map", bpf_map, slot)
    return XDP_REDIRECT


def _helper_adjust_head(vm: "EbpfVm") -> object:
    delta = vm.scalar_signed_from_reg(2)
    return 0 if vm.adjust_pkt_head(delta) else -1 & ((1 << 64) - 1)


def _helper_csum_diff(vm: "EbpfVm") -> object:
    # bpf_csum_diff(from, from_size, to, to_size, seed); we implement the
    # common "fold new bytes into seed" usage.
    to_ptr, to_size = vm.reg(3), vm.scalar_from_reg(4)
    seed = vm.scalar_from_reg(5)
    data = vm.read_mem_via_pointer(to_ptr, to_size)
    return (seed + (~internet_checksum(bytes(data)) & 0xFFFF)) & 0xFFFFFFFF


HELPERS = {
    Helper.MAP_LOOKUP_ELEM: _helper_map_lookup,
    Helper.MAP_UPDATE_ELEM: _helper_map_update,
    Helper.MAP_DELETE_ELEM: _helper_map_delete,
    Helper.KTIME_GET_NS: _helper_ktime,
    Helper.GET_PRANDOM_U32: _helper_prandom,
    Helper.REDIRECT: _helper_redirect,
    Helper.REDIRECT_MAP: _helper_redirect_map,
    Helper.XDP_ADJUST_HEAD: _helper_adjust_head,
    Helper.CSUM_DIFF: _helper_csum_diff,
}

HELPER_IDS = frozenset(int(h) for h in HELPERS)
