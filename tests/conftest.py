"""Every Hypothesis test draws the same examples on every run: the
examples follow from each test's code and the pinned Hypothesis version,
and no example database replays an earlier run's failures.

The ``ringmill-no-shrink`` profile draws the same examples and skips the
shrink phase, which only makes a failure already found smaller: a failing
test fails in the time its examples take instead of minutes later.
``tools/mutate.py`` runs pytest with it (``--hypothesis-profile
ringmill-no-shrink``); tier-1 runs ``ringmill``."""

from hypothesis import Phase, settings

# on top of the profile already loaded (Hypothesis loads "ci" on CI hosts)
settings.register_profile("ringmill", settings.default, derandomize=True)
settings.register_profile("ringmill-no-shrink", settings.get_profile("ringmill"),
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("ringmill")
