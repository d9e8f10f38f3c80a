"""Discrete Fourier bases and Haar genericity statistics."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .incompatibility import complete_incompatibility
from .linalg import haar_unitary


def dft_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier transform matrix of size d."""
    if d < 2:
        raise ValidationError(f"dimension must be at least 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return omega ** (j * k) / np.sqrt(d)


@dataclass(frozen=True)
class GenericityStudy:
    dim: int
    samples: int
    seed: int
    fraction_completely_incompatible: float
    min_minor_quantiles: dict[str, float]


def haar_genericity_study(d: int, samples: int, seed: int) -> GenericityStudy:
    """Fraction of Haar-random bases that are completely incompatible.

    Each sample uses a seed derived from the study seed, so the study is
    reproducible and individual samples can be re-examined. The quantiles
    of the smallest minor modulus show how far typical samples sit from
    the degenerate set. The size guard is the minor count of
    :func:`complete_incompatibility`, checked before any minor is computed.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    hits = 0
    min_minors = np.empty(samples)
    for k in range(samples):
        u = haar_unitary(d, seed + k)
        report = complete_incompatibility(u)
        hits += int(report.completely_incompatible)
        min_minors[k] = report.min_abs_minor
    quantiles = np.quantile(min_minors, [0.0, 0.25, 0.5, 0.75, 1.0])
    return GenericityStudy(
        dim=d,
        samples=samples,
        seed=seed,
        fraction_completely_incompatible=hits / samples,
        min_minor_quantiles={
            "min": float(quantiles[0]),
            "q25": float(quantiles[1]),
            "median": float(quantiles[2]),
            "q75": float(quantiles[3]),
            "max": float(quantiles[4]),
        },
    )
