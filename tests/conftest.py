"""Shared pytest setup: the hypothesis profile of the property tests.

Derandomized, so every run of the suite draws the same examples and the
tier-1 run stays deterministic; no deadline, because a single-threaded
parse or validation can stall on a loaded host; a bounded example count
keeps the property tests to a few seconds together. No example database
is kept; hypothesis still caches under ``.hypothesis/``, which git ignores.
"""

from hypothesis import settings

settings.register_profile("slotvid", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("slotvid")
