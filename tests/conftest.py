"""Shared test settings: the one hypothesis profile every property test runs
under.  Derandomized with no example database, so a property test draws the
same examples on every run and host."""

from hypothesis import settings

settings.register_profile("fedsim", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("fedsim")
