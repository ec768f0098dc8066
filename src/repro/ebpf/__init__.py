"""An eBPF virtual machine with verifier, maps and XDP semantics.

The paper's §2.2.2 explores replacing the OVS kernel module with an eBPF
program and rejects it for performance; §3 uses a *tiny* eBPF program at the
XDP hook to feed AF_XDP; §5.4 measures how added XDP program complexity
costs throughput.  To reproduce those experiments faithfully we implement a
real (subset) eBPF machine:

* a register ISA (:mod:`repro.ebpf.isa`) and assembler
  (:mod:`repro.ebpf.program`),
* a verifier (:mod:`repro.ebpf.verifier`) that enforces the sandbox limits
  the paper complains about — program size cap and **no loops**,
* a machine model (:mod:`repro.ebpf.vm`) whose runs execute each program
  JIT-compiled (:mod:`repro.ebpf.jit`) and charge ``ebpf_insn_ns`` per
  executed instruction; a program the JIT cannot compile fails to load,
  and the step-by-step reference VM lives in the tests as the oracle,
* maps and helpers (:mod:`repro.ebpf.maps`, :mod:`repro.ebpf.helpers`),
* XDP attach/return semantics (:mod:`repro.ebpf.xdp`).
"""

from repro.ebpf.isa import Insn, Reg
from repro.ebpf.maps import ArrayMap, DevMap, HashMap, LpmTrieMap
from repro.ebpf.program import Program, ProgramBuilder
from repro.ebpf.verifier import VerifierError, verify
from repro.ebpf.vm import EbpfVm, VmFault
from repro.ebpf.xdp import XdpAction, XdpContext

__all__ = [
    "Insn",
    "Reg",
    "Program",
    "ProgramBuilder",
    "VerifierError",
    "verify",
    "EbpfVm",
    "VmFault",
    "ArrayMap",
    "HashMap",
    "LpmTrieMap",
    "DevMap",
    "XdpAction",
    "XdpContext",
]
