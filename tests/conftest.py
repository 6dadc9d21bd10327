"""Suite-wide settings: hypothesis draws the same examples on every run.

Each test's own ``max_examples`` and ``deadline`` still apply; only the seed
is fixed, derived from the test itself.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
