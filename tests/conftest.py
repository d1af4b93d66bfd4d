"""Hypothesis profiles for the property tests.

The default profile, ``repeatable``, derandomises Hypothesis and keeps no
example database, so every run draws the same examples and a Tier-1 result
depends on the code alone.  ``HYPOTHESIS_PROFILE=fuzz`` draws fresh examples
instead, and keeps the usual database so that a failure found once is
replayed first next time.
"""

import os

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))
