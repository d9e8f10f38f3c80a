"""Per-basis work, done once per transition matrix.

These results depend only on the transition matrix and are reused across
calls: the minor search of the complete-incompatibility decision, the
pattern solve of the minimal-state enumeration, the support roof's support
subspaces, and the roofs' hull anchors (the minimal states and their
KD-positive subset, each with its projector points). Each is cached in the
module that computes it through :func:`per_basis`, keyed on the matrix's
shape and bytes alone (the base tolerance is the fixed
``config.BASE_TOL``), in a cache of the last ``config.BASIS_CACHE_SIZE``
entries.
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


def per_basis(compute):
    """``compute(u)``, computed once per content of ``u``.

    ``u`` is a complex matrix, already validated by the caller; ``compute``
    gets a read-only, C-ordered copy of it, the same for equal content.
    """

    @lru_cache(maxsize=config.BASIS_CACHE_SIZE)
    def cached(shape, data):
        # A buffer of immutable bytes makes the matrix read-only.
        return compute(np.frombuffer(data, dtype=complex).reshape(shape))

    @wraps(compute)
    def call(u):
        return cached(u.shape, u.tobytes())

    call.cache_info = cached.cache_info
    _CACHE_CLEARS.append(cached.cache_clear)
    return call


def clear_cache() -> None:
    """Forget every cached per-basis result."""
    for clear in _CACHE_CLEARS:
        clear()
