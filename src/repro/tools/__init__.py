"""The Linux networking tools of the paper's Table 1.

Each command here works the way its real counterpart does: through
rtnetlink and kernel facilities.  That is the paper's compatibility
argument in executable form — they all work on any kernel-managed device
(including one feeding OVS through AF_XDP), and all of them fail with
``Device does not exist`` on a NIC bound to DPDK.

The package also holds the simulator's own reporting tools, imported by
path: :mod:`~repro.tools.perf_report` (call-tree profiles with a
conservation audit), :mod:`~repro.tools.matrix_gate` (the perf-matrix
baseline gate), :mod:`~repro.tools.conservation` (packet ledgers) and
:mod:`~repro.tools.pcap`.  Wall-clock measurement lives outside the
package, in ``bench/``; byte-identity checks are tier-1 tests.
"""

from repro.tools.iproute import IpCommand
from repro.tools.ping import arping, ping
from repro.tools.nstat import nstat
from repro.tools.tcpdump import Tcpdump
from repro.tools.ethtool import Ethtool

__all__ = ["IpCommand", "ping", "arping", "nstat", "Tcpdump", "Ethtool"]
