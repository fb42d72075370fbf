"""Small shared helpers, and the package's one door to ``numpy.random``.

Every random draw in the package comes from ``generator(seed)``, and every
seed from ``derive_seed``; no other module names ``numpy.random``.  The
first of them to run imports ``numpy.random`` (``_numpy_random``), and does
so without OpenSSL.  numpy 2.4's ``numpy.random.bit_generator`` runs ``from
secrets import randbits`` with no fallback, and ``secrets`` imports ``hmac``
and ``hashlib``, which load OpenSSL's ``_hashlib`` and libcrypto: the
first draw then adds about 6.5 MB of resident memory, of which
``numpy.random`` itself is about 3 MB (numpy 2.4, Python 3.11, x86-64
Linux).  The package never asks for OS entropy, since every generator is
seeded from the master seed.  So while ``numpy.random`` is imported,
``sys.modules["_hashlib"]`` is None, which is how Python runs when it is
built without OpenSSL, a build ``hashlib`` and ``hmac`` support; they then
use the built-in digests.  Afterwards the entry is removed, and
so are ``secrets``, ``hmac`` and ``hashlib`` when they were not loaded
before, so a later ``import hashlib`` gets OpenSSL as usual.  When
``_hashlib`` is already loaded, the import saves nothing and runs as usual.
It also runs as usual when a built-in digest is missing, as in a Python
built with only OpenSSL's digests: hidden OpenSSL would make ``hashlib`` log
a traceback for each missing digest, and ``random``, which ``secrets``
imports, fail to import ``sha512``.  (Hiding ``secrets`` instead does not work: ``numpy.random``
then raises ImportError.)  ``predict`` draws nothing and never imports
``numpy.random``.
"""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from importlib.util import find_spec

import numpy as np

# Imported by ``secrets`` for ``numpy.random``; dropped again if they were
# imported only for it.
_ENTROPY_MODULES = ("secrets", "hmac", "hashlib")

# The built-in digests ``hashlib`` uses without OpenSSL.
_BUILTIN_DIGESTS = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512"))


def _numpy_random():
    """``numpy.random``, imported on first use without OpenSSL when the
    built-in digests can stand in for it."""
    if ("numpy.random" in sys.modules or "_hashlib" in sys.modules
            or not all(map(find_spec, _BUILTIN_DIGESTS))):
        return np.random
    fresh = [name for name in _ENTROPY_MODULES if name not in sys.modules]
    sys.modules["_hashlib"] = None
    try:
        return np.random  # numpy imports the submodule on first access
    finally:
        del sys.modules["_hashlib"]
        for name in fresh:
            sys.modules.pop(name, None)


def generator(seed: int):
    """A ``numpy.random.Generator`` seeded with ``seed``: the stream of
    ``np.random.default_rng(seed)``."""
    return _numpy_random().default_rng(seed)


def derive_seed(*parts: int) -> int:
    """Deterministically mix integers into a child seed.

    All randomness in the package flows from one master seed; sub-tasks
    (learner index, fold index, pipeline stage, ...) get their own streams
    through this mixer so results do not depend on execution order.

    Part lists give independent streams unless they differ only by trailing
    zeros within the first four parts: numpy's ``SeedSequence`` pads its
    entropy with zeros to four words, so ``derive_seed(7) ==
    derive_seed(7, 0) == derive_seed(7, 0, 0)``.  So a tag that is followed
    by an index counted from 0 is not also used alone.  Every output of the
    package depends on these values, so they stay as they are.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"seed parts must be non-negative, got {parts}")
    sequence = _numpy_random().SeedSequence(list(parts))
    return int(sequence.generate_state(2, np.uint32)[0])


def as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def write_table(path, header, rows) -> None:
    """Write a report table as CSV: UTF-8, ``\\n`` line ends, a header row
    and then ``rows``; to standard output when ``path`` is None."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
