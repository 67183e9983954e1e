"""Hypothesis profiles. Tests that leave ``max_examples`` to the profile run
15 examples each by default; ``HYPOTHESIS_PROFILE=ci`` runs 300."""

import os

from hypothesis import settings

settings.register_profile("dev", max_examples=15, deadline=None)
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
