"""Test-side oracle selectors shared by the equivalence suites."""

from repro.sim import fastpath


def reference_mode():
    """Every wall-clock memo off — the reference the memoized stack must
    equal.  (eBPF runs compiled either way; the step-by-step oracle for
    it is ``tests/reference/ebpf_vm.py``.)"""
    return fastpath.disabled()
