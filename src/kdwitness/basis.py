"""Per-basis work, done once per transition matrix.

Two results depend only on the transition matrix and are reused across
calls: the minor search of the complete-incompatibility decision and the
pattern solve of the minimal-state enumeration. Each is cached in the module
that computes it through :func:`per_basis`, keyed on the matrix's shape and
bytes (and the solve's tolerances), in a cache of the last
``config.BASIS_CACHE_SIZE`` entries. What callers derive from the
enumeration, such as its KD-positive subset, is recomputed per call.
Callers still validate, guard and warn on every call; only the computed
results are shared, and their arrays are read-only. Tables that depend on
the dimension alone, such as the enumeration's support patterns and the
minor search's index sets, are built once per d per process, apart from
this cache.
"""

from functools import lru_cache, wraps

import numpy as np

from . import config

_CACHE_CLEARS = []


def per_basis(compute):
    """``compute(u, *args)``, computed once per content of ``u`` and ``args``.

    ``u`` is a complex matrix, already validated by the caller; ``compute``
    gets a read-only, C-ordered copy of it, the same for equal content.
    """

    @lru_cache(maxsize=config.BASIS_CACHE_SIZE)
    def cached(shape, data, *args):
        # A buffer of immutable bytes makes the matrix read-only.
        return compute(np.frombuffer(data, dtype=complex).reshape(shape), *args)

    @wraps(compute)
    def call(u, *args):
        return cached(u.shape, u.tobytes(), *args)

    call.cache_info = cached.cache_info
    _CACHE_CLEARS.append(cached.cache_clear)
    return call


def clear_cache() -> None:
    """Forget every cached per-basis result."""
    for clear in _CACHE_CLEARS:
        clear()
