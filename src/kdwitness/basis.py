"""Per-basis work, done once per transition matrix.

The minor search, the minimal-state enumeration, its KD-positive subsets and
the real points of their projectors depend only on the transition matrix and
the tolerances they are computed at. ``BasisPair.of`` hands out one shared
``BasisPair`` per matrix content, from a cache of the last
``config.BASIS_CACHE_SIZE`` matrices, and the modules that own each part
compute it the first time it is asked for. Callers still validate, guard and
warn on every call; only the computed parts are shared, and their arrays are
read-only.
"""

from functools import lru_cache

import numpy as np

from . import config
from .errors import DimensionMismatch
from .linalg import as_complex


class BasisPair:
    """A validated, read-only transition matrix and the parts computed from it.

    Frozen: its attributes cannot be rebound. A plain class rather than a
    dataclass, since building a dataclass adds about a millisecond to every
    fresh import of the package.
    """

    __slots__ = ("transition", "_parts")

    def __init__(self, transition: np.ndarray):
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "_parts", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"BasisPair is frozen; cannot set {name!r}")

    @staticmethod
    def of(transition) -> "BasisPair":
        """The shared pair of a square transition matrix, validated on every call."""
        u = as_complex(transition, "transition matrix")
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
        return _shared(u.shape, u.tobytes())

    def part(self, key, compute):
        """``compute()`` the first time ``key`` is asked for, the same object after."""
        if key not in self._parts:
            self._parts[key] = compute()
        return self._parts[key]


@lru_cache(maxsize=config.BASIS_CACHE_SIZE)
def _shared(shape: tuple[int, ...], data: bytes) -> BasisPair:
    # A buffer of immutable bytes makes the matrix read-only.
    return BasisPair(np.frombuffer(data, dtype=complex).reshape(shape))


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` after clearing its writeable flag."""
    array.flags.writeable = False
    return array


def clear_cache() -> None:
    """Forget every cached basis pair."""
    _shared.cache_clear()
