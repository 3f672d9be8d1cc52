"""One hypothesis profile for the whole suite.

Example timings vary with the load of the machine running the suite, so
no example has a deadline; each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("transferlab", deadline=None)
settings.load_profile("transferlab")
