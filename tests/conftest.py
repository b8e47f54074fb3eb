"""Every Hypothesis test draws the same examples on every run: the
examples follow from each test's code and the pinned Hypothesis version,
and no example database replays an earlier run's failures."""

from hypothesis import settings

# on top of the profile already loaded (Hypothesis loads "ci" on CI hosts)
settings.register_profile("ringmill", settings.default, derandomize=True)
settings.load_profile("ringmill")
