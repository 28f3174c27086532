from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
