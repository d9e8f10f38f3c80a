import numpy as np
import pytest

from kdwitness import (
    AnnealConfig,
    NotIsometry,
    SPIN1,
    decomposition_from_isometry,
    hermitian_eig,
    kd_table,
    nonpositivity_roof_bounds,
    rho_lambda,
    roof_upper_bound,
    support_roof_bounds,
    total_nonpositivity,
)
from kdwitness.linalg import projector, random_density, random_isometry
from kdwitness.roof import nonpositivity_values_fn

LIGHT = AnnealConfig(restarts=6, steps=400, seed=0)


def test_decomposition_identity_isometry_recovers_eigensystem():
    rng = np.random.default_rng(1)
    rho = random_density(3, rng)
    eig = hermitian_eig(rho)
    dec = decomposition_from_isometry(eig, np.eye(3))
    assert np.allclose(np.sort(dec.weights), np.sort(eig.eigenvalues), atol=1e-12)
    dec.validate(rho)


def test_decomposition_hadamard_mixing_of_degenerate_state():
    eig = hermitian_eig(np.eye(2) / 2.0)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    dec = decomposition_from_isometry(eig, hadamard)
    assert np.allclose(dec.weights, [0.5, 0.5])
    for row in dec.states:
        assert np.allclose(np.abs(row), [1.0 / np.sqrt(2.0)] * 2, atol=1e-12)
    dec.validate(np.eye(2) / 2.0)


def test_decomposition_random_isometry_reconstructs():
    rng = np.random.default_rng(2)
    rho = random_density(3, rng)
    eig = hermitian_eig(rho)
    for k in range(10):
        v = random_isometry(9, 3, np.random.default_rng(50 + k))
        dec = decomposition_from_isometry(eig, v)
        assert np.linalg.norm(dec.density() - rho) <= 1e-8
        assert dec.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_decomposition_rejects_non_isometry():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    with pytest.raises(NotIsometry):
        decomposition_from_isometry(hermitian_eig(rho), np.ones((4, 3)))


def test_roof_upper_bound_rank_one_is_exact():
    psi = SPIN1.min_uncertainty_states[9]  # psi1
    rho = projector(psi)
    res = roof_upper_bound(rho, nonpositivity_values_fn(SPIN1.transition), LIGHT)
    assert res.value == pytest.approx(17.0 / 15.0, abs=1e-12)
    assert res.decomposition.weights.shape == (1,)


def test_roof_upper_bound_mixed_state_reaches_one():
    res = roof_upper_bound(
        np.eye(3) / 3.0, nonpositivity_values_fn(SPIN1.transition), LIGHT
    )
    assert res.value <= 1.0 + 1e-6


def test_roof_upper_bound_counterexample_stays_above_one():
    res = roof_upper_bound(
        rho_lambda(0.5),
        nonpositivity_values_fn(SPIN1.transition),
        LIGHT,
        anchors=SPIN1.positive_states,
    )
    assert res.value > 1.0 + 1e-4


def test_roof_search_improves_on_the_eigendecomposition_seed():
    rho = rho_lambda(0.5)
    eig = hermitian_eig(rho)
    values_fn = nonpositivity_values_fn(SPIN1.transition)
    seed_value = float(
        eig.eigenvalues[eig.eigenvalues > 1e-10]
        @ values_fn(eig.eigenvectors.T[eig.eigenvalues > 1e-10])
    )
    res = roof_upper_bound(rho, values_fn, LIGHT, anchors=SPIN1.positive_states)
    assert res.value <= seed_value + 1e-12
    running = np.minimum.accumulate(res.restart_values)
    assert np.all(np.diff(running) <= 1e-15)


def test_support_roof_exact_on_basis_hull_mixture():
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(6))
    rho = sum(
        wi * projector(s) for wi, s in zip(w, SPIN1.min_uncertainty_states[:6])
    )
    est = support_roof_bounds(rho, SPIN1.transition, cfg=LIGHT)
    assert est.exact
    assert est.lower_bound == est.upper_bound == 4.0
    assert not est.lower_strict
    assert est.upper_decomposition is not None
    est.upper_decomposition.validate(rho)


@pytest.mark.parametrize("lam", [0.1, 0.3, 4.0 / 7.0])
def test_support_roof_certifies_counterexample(lam):
    est = support_roof_bounds(rho_lambda(lam), SPIN1.transition, cfg=LIGHT)
    assert est.lower_strict
    assert est.lower_bound == 4.0
    assert est.lower_certificate == "hull_membership"
    assert est.membership.verdict == "outside"
    assert est.upper_bound > 4.0
    assert not est.exact


def test_support_roof_pure_minimal_state():
    est = support_roof_bounds(
        projector(SPIN1.min_uncertainty_states[9]), SPIN1.transition, cfg=LIGHT
    )
    assert est.exact
    assert est.lower_bound == est.upper_bound == 4.0
    assert est.lower_certificate == "rank_one"


def test_nonpositivity_roof_exact_on_maximally_mixed():
    est = nonpositivity_roof_bounds(np.eye(3) / 3.0, SPIN1.transition, cfg=LIGHT)
    assert est.exact
    assert est.lower_bound == est.upper_bound == 1.0
    assert est.membership.verdict == "inside"


def test_nonpositivity_roof_counterexample():
    est = nonpositivity_roof_bounds(rho_lambda(0.5), SPIN1.transition, cfg=LIGHT)
    assert est.base_value == pytest.approx(1.0, abs=2e-9)
    assert est.lower_strict
    assert est.lower_bound == 1.0
    assert est.upper_bound > 1.0 + 1e-4
    assert not est.exact


def test_nonpositivity_roof_rank_one():
    est = nonpositivity_roof_bounds(
        projector(SPIN1.min_uncertainty_states[9]), SPIN1.transition, cfg=LIGHT
    )
    assert est.exact
    assert est.lower_bound == est.upper_bound == pytest.approx(17.0 / 15.0, abs=1e-12)
    assert est.restart_values == (est.upper_bound,)


def test_nonpositivity_roof_accepts_supplied_generators():
    est = nonpositivity_roof_bounds(
        rho_lambda(0.25),
        SPIN1.transition,
        cfg=LIGHT,
        positive_pure=SPIN1.positive_states,
    )
    assert est.generator_provenance == "supplied"
    assert est.lower_strict


def test_convexity_sandwich_on_random_states():
    rng = np.random.default_rng(6)
    for k in range(5):
        rho = random_density(3, rng)
        est = nonpositivity_roof_bounds(rho, SPIN1.transition, cfg=LIGHT)
        n_plain = total_nonpositivity(kd_table(rho, SPIN1.transition))
        assert n_plain - 1e-9 <= est.upper_bound
        assert est.lower_bound <= est.upper_bound + 1e-8


def test_hand_built_positive_mixture_is_exactly_one():
    rng = np.random.default_rng(7)
    w = rng.dirichlet(np.ones(9))
    rho = sum(wi * projector(s) for wi, s in zip(w, SPIN1.positive_states))
    est = nonpositivity_roof_bounds(rho, SPIN1.transition, cfg=LIGHT)
    assert est.exact
    assert abs(est.upper_bound - 1.0) <= 1e-6


def test_witness_consistency_on_counterexamples():
    # A state with support roof certified above d+1 while its table is
    # positive must also get the nonpositivity-roof certificate.
    for lam in (0.1, 0.5):
        rho = rho_lambda(lam)
        support = support_roof_bounds(rho, SPIN1.transition, cfg=LIGHT)
        nonpos = nonpositivity_roof_bounds(rho, SPIN1.transition, cfg=LIGHT)
        assert support.lower_strict
        assert nonpos.lower_strict
        assert nonpos.upper_bound > 1.0
