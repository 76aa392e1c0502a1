"""One hypothesis profile for every property: reproducible and unhurried.

Each `@settings` site states only its `max_examples`.
"""

from hypothesis import settings

settings.register_profile("bcjacobi", derandomize=True, deadline=None, database=None)
settings.load_profile("bcjacobi")
