"""Behavior on bases other than the built-in spin-1 pair.

For a generically chosen basis pair the only pure KD-positive states are
the basis states themselves, so the roof machinery should report exact
values on mixtures of basis projectors and the enumeration should keep
exactly 2d states after the positivity filter.
"""

import numpy as np
import pytest

from kdwitness import (
    AnnealConfig,
    NotCompletelyIncompatible,
    dft_matrix,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    haar_unitary,
    nonpositivity_roof_bounds,
    phase_invariant_distance,
    support_roof_bounds,
)
from kdwitness.linalg import projector, random_density

LIGHT = AnnealConfig(restarts=4, steps=250, seed=0)


def _basis_reference(u):
    d = u.shape[0]
    return np.vstack([np.eye(d, dtype=complex), u.T])


def test_dft3_positive_states_are_the_bases():
    u = dft_matrix(3)
    minimal = enumerate_min_uncertainty_states(u)
    assert len(minimal) == 15
    positive = filter_kd_positive_pure(minimal, u)
    assert len(positive) == 6
    for ref in _basis_reference(u):
        assert min(
            phase_invariant_distance(s, ref) for s in positive.states
        ) <= 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_haar_d3_positive_states_are_the_bases(seed):
    u = haar_unitary(3, seed=seed)
    minimal = enumerate_min_uncertainty_states(u)
    assert len(minimal) == 15
    positive = filter_kd_positive_pure(minimal, u)
    assert len(positive) == 6


def test_haar_d4_counts():
    u = haar_unitary(4, seed=11)
    minimal = enumerate_min_uncertainty_states(u)
    # 4 + 24 + 24 + 4 support patterns of sizes (1,4), (2,3), (3,2), (4,1).
    assert len(minimal) == 56
    positive = filter_kd_positive_pure(minimal, u)
    assert len(positive) == 8


def test_support_roof_exact_on_haar_basis_mixture():
    u = haar_unitary(3, seed=5)
    rng = np.random.default_rng(1)
    w = rng.dirichlet(np.ones(4))
    rho = w[0] * projector(np.eye(3)[0]) + w[1] * projector(np.eye(3)[1])
    rho += w[2] * projector(u[:, 0]) + w[3] * projector(u[:, 2])
    est = support_roof_bounds(rho, u, cfg=LIGHT)
    assert est.exact and est.upper_bound == 4.0
    nonpos = nonpositivity_roof_bounds(rho, u, cfg=LIGHT)
    assert nonpos.exact and nonpos.upper_bound == 1.0


def test_support_roof_exact_on_haar_d4_mixture():
    u = haar_unitary(4, seed=3)
    rho = 0.5 * projector(np.eye(4)[1]) + 0.5 * projector(u[:, 2])
    est = support_roof_bounds(rho, u, cfg=LIGHT)
    assert est.exact and est.upper_bound == 5.0


def test_support_roof_requires_complete_incompatibility():
    with pytest.raises(NotCompletelyIncompatible):
        support_roof_bounds(np.eye(4) / 4.0, dft_matrix(4), cfg=LIGHT)


def test_nonpositivity_roof_without_hull_route():
    # The Fourier pair at d = 4 is not completely incompatible, so no
    # generator list can be derived; only the convexity bound and the
    # annealed upper bound are available.
    u = dft_matrix(4)
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = 0.7 * projector(psi) + 0.3 * np.eye(4) / 4.0
    est = nonpositivity_roof_bounds(rho, u, cfg=LIGHT)
    assert est.membership is None
    assert est.generator_provenance is None
    assert est.lower_certificate == "convexity"
    assert est.lower_bound <= est.upper_bound + 1e-8


def test_nonpositivity_roof_beyond_the_minor_guard():
    # At d = 9 both enumeration and the minor check are out of reach; the
    # roof still gets the convexity bound and an annealed upper bound.
    rng = np.random.default_rng(9)
    rho = random_density(9, rng)
    est = nonpositivity_roof_bounds(
        rho, haar_unitary(9, 9), cfg=AnnealConfig(restarts=1, steps=5)
    )
    assert est.lower_certificate == "convexity"
    assert est.generator_provenance is None
