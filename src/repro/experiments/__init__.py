"""One module per table/figure of the paper's evaluation.

Every experiment exposes a ``run_*`` function returning a result object
with the same rows/series the paper reports, plus ``main()`` for running
from the command line (``python -m repro.experiments.fig9_forwarding``).
``tests/record.json`` records their results at the sizes the paper's
claims are stated at, and ``tests/test_claims.py`` checks each claim
once, as a predicate over those results.
"""
