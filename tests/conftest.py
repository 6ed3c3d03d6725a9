"""Shared pytest setup: the ``ci`` Hypothesis profile.

``pytest --hypothesis-profile=ci`` prints the reproduction blob of a failing
property test.  The profile keeps Hypothesis's default example count and
deadline, and the tests that set their own keep theirs.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
