"""Shared test settings: every hypothesis property is derandomized and untimed.

A property sets only its example count. Derandomized examples repeat from run
to run, and no deadline applies because one example may run a whole search.
"""

from hypothesis import settings

settings.register_profile("optex", deadline=None, derandomize=True)
settings.load_profile("optex")
