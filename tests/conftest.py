"""Test-side oracle selectors shared by the equivalence suites."""

from repro.sim import fastpath


def reference_mode():
    """Everything off: no wall-clock memos, no JIT — the reference the
    optimized stack must equal."""
    return fastpath.disabled()
