"""umem: the shared packet-buffer memory area.

A umem is a contiguous region carved into fixed-size frames; the kernel
DMAs (zero-copy mode) or copies (copy mode) received packets into frames
whose addresses userspace posted on the **fill ring**, and reports
transmitted frames back on the **completion ring** (§3.1's numbered paths).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.afxdp.rings import DescRing
from repro.net.packet import Packet

FRAME_SIZE = 2048


class Umem:
    def __init__(self, n_frames: int = 4096, frame_size: int = FRAME_SIZE,
                 ring_size: int = 2048) -> None:
        if n_frames <= 0:
            raise ValueError("umem needs frames")
        self.n_frames = n_frames
        self.frame_size = frame_size
        #: Frame contents, by frame address.  A Packet object stands in
        #: for the bytes living at that address.
        self._frames: Dict[int, Optional[Packet]] = {
            i * frame_size: None for i in range(n_frames)
        }
        self.fill_ring = DescRing(ring_size)
        self.completion_ring = DescRing(ring_size)

    def all_addresses(self):
        return list(self._frames.keys())

    # The address, empty-frame and size checks are written out inline:
    # these run once or twice per packet, so a helper frame is not free.
    def write_frame(self, addr: int, pkt: Packet) -> None:
        frames = self._frames
        if addr not in frames:
            raise ValueError(f"address {addr:#x} is not a frame boundary")
        if len(pkt.data) > self.frame_size:
            raise ValueError(
                f"packet ({len(pkt.data)}B) larger than a frame "
                f"({self.frame_size}B)"
            )
        frames[addr] = pkt

    def read_frames(self, addrs: Sequence[int]) -> List[Packet]:
        """The packets in the frames at ``addrs``, in order."""
        frames = self._frames
        try:
            pkts = [frames[addr] for addr in addrs]
        except KeyError as exc:
            raise ValueError(
                f"address {exc.args[0]:#x} is not a frame boundary") from None
        if None in pkts:
            raise ValueError(f"frame {addrs[pkts.index(None)]:#x} is empty")
        return pkts

    def clear_frames(self, addrs: Sequence[int]) -> None:
        frames = self._frames
        for addr in addrs:
            if addr not in frames:
                raise ValueError(f"address {addr:#x} is not a frame boundary")
            frames[addr] = None
