"""Per-basis work, done once per transition matrix or generator set.

These results depend only on an array's content and are reused across
calls: the minor search of the complete-incompatibility decision, the
pattern solve of the minimal-state enumeration, the support roof's support
subspaces, the roofs' hull anchors (the minimal states and their
KD-positive subset, each with its projector points), and the facets of a
hull's real-embedded generator points. Each is cached in the module that
computes it through :func:`per_basis`, keyed on the array's dtype, shape
and bytes alone (the base tolerance is the fixed ``config.BASE_TOL``), in
a cache of the last ``config.BASIS_CACHE_SIZE`` entries. The Laplace
recurrence's minors, which the minor search and the enumeration that
follows it on the same basis both read, are kept for the last basis only.
Callers still validate, guard and warn on every call, except that a roof
enumerates, and so checks and warns, only when it computes its anchors;
only the computed results are shared, and their arrays are read-only. A
failure is never kept. Tables that depend on the dimension alone, such as
the enumeration's support patterns and the minor search's index sets, are
built once per d per process, apart from this cache.
"""

from functools import lru_cache, wraps

import numpy as np

from . import config

_CACHE_CLEARS = []


def per_basis(compute, size: int = config.BASIS_CACHE_SIZE):
    """``compute(u)``, computed once per content of ``u``, for the last ``size`` contents.

    ``u`` is an array, already validated by the caller; ``compute`` gets a
    read-only, C-ordered copy of it, the same for equal dtype, shape and bytes.
    """

    @lru_cache(maxsize=size)
    def cached(dtype, shape, data):
        # A buffer of immutable bytes makes the array read-only.
        return compute(np.frombuffer(data, dtype=dtype).reshape(shape))

    @wraps(compute)
    def call(u):
        return cached(u.dtype, u.shape, u.tobytes())

    call.cache_info = cached.cache_info
    _CACHE_CLEARS.append(cached.cache_clear)
    return call


def clear_cache() -> None:
    """Forget every cached per-basis result."""
    for clear in _CACHE_CLEARS:
        clear()
