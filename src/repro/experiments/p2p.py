"""The benchmark's names for three P2P rows of the world table.

``bench/workloads.py`` imports these four names; they stay until the
benchmark is next re-based (ROADMAP item 1).  Everything else calls
:func:`repro.experiments.world.build_world`.
"""

from functools import partial

from repro.experiments.world import World, build_world

P2PBench = World
afxdp_p2p = partial(build_world, "afxdp_zc", "P2P")
kernel_p2p = partial(build_world, "kernel", "P2P")
dpdk_p2p = partial(build_world, "dpdk", "P2P")
