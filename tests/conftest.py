"""Hypothesis profiles for the suite.

``tier1`` (the default) derandomizes every ``@given`` test and keeps no
example database, so a plain ``pytest`` draws the same examples on every
run and machine.  ``explore`` draws fresh examples each run; select it
with ``pytest --hypothesis-profile=explore`` to look for new failures.  A
failure found that way is added to its test as an ``@example``, so that
tier-1 replays it from then on.  A test's own ``@settings`` override only
the fields they name.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")
