"""Shared test settings.

Hypothesis draws its examples from a seed derived from each test, not from
the clock or the ``.hypothesis/`` example database, so every run of the
suite checks the same examples.
"""

from hypothesis import settings

settings.register_profile("gme-sim", derandomize=True, deadline=None, database=None)
settings.load_profile("gme-sim")
