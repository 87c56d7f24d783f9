"""Suite-wide hypothesis settings: derandomised, no example database.

Even without a database hypothesis caches source constants and unicode
tables on disk, so its home directory is a temporary directory, removed when
the session ends; the checkout gets no ``.hypothesis/``.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

settings.register_profile("assoclab", derandomize=True, database=None, deadline=None)
settings.load_profile("assoclab")
