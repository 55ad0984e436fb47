"""Test-session settings.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with no per-example deadline (the
exact arithmetic is slow on a loaded machine) and at most 50 examples per
test, so the suite stays short.
"""

from hypothesis import settings

settings.register_profile("hopfbraid", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("hopfbraid")
