import os

from hypothesis import settings

# CI runs the property tests with more examples: HYPOTHESIS_PROFILE=ci.
# A test's own @settings still overrides the profile.
settings.register_profile("ci", max_examples=400, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
