"""Properties of both roofs' column-generation bounds on seeded excluded states.

The states are drawn as G G^H / Tr with G a d x r complex Gaussian, in the
spin-1 basis pair and in a Haar basis at d = 4, at ranks 2 and 3; states the
hull of the minimal states (support roof) or of the KD-positive ones
(nonpositivity roof) contains are discarded.
"""

import numpy as np
import pytest

from kdwitness import (
    SPIN1,
    AnnealConfig,
    decomposition_from_isometry,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    haar_unitary,
    hermitian_eig,
    kd_table,
    membership_lp,
    nonpositivity_roof_bounds,
    roof_upper_bound,
    support_roof_bounds,
    total_nonpositivity,
)
from kdwitness.linalg import complex_gaussian, projector, random_isometry
from kdwitness.roof import nonpositivity_values_fn, support_values_fn

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = {"spin1": SPIN1.transition, "haar4": haar_unitary(4, 3)}
SETTINGS = hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _minimal(u):
    return enumerate_min_uncertainty_states(u).states


def _positive(u):
    return filter_kd_positive_pure(enumerate_min_uncertainty_states(u), u).states


@st.composite
def excluded_states(draw, generators=_minimal):
    name = draw(st.sampled_from(sorted(BASES)))
    u = BASES[name]
    rank = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    g = complex_gaussian((u.shape[0], rank), np.random.default_rng(seed))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    gens = [projector(s) for s in generators(u)]
    hypothesis.assume(membership_lp(rho, gens).verdict == "outside")
    return rho, u, seed


@SETTINGS
@hypothesis.given(excluded_states())
def test_dual_bound_is_below_the_upper_bound(case):
    rho, u, _ = case
    est = support_roof_bounds(rho, u)
    assert est.lower_strict
    assert est.lower_bound < est.dual_bound <= est.upper_bound


@SETTINGS
@hypothesis.given(excluded_states())
def test_dual_bound_is_below_annealed_and_random_decompositions(case):
    rho, u, seed = case
    est = support_roof_bounds(rho, u)
    values = support_values_fn(u)
    annealed = roof_upper_bound(rho, values, AnnealConfig(restarts=2, steps=100, seed=seed),
                                anchors=_minimal(u))
    assert est.dual_bound <= annealed.value
    eig = hermitian_eig(rho)
    rank = int(np.count_nonzero(eig.eigenvalues > 1e-10))
    rng = np.random.default_rng(seed)
    for n in (rank, rank + 1, rank * rank):
        dec = decomposition_from_isometry(eig, random_isometry(n, rank, rng))
        assert est.dual_bound <= dec.weights @ values(dec.states)


@SETTINGS
@hypothesis.given(excluded_states())
def test_column_generation_is_no_worse_than_annealing(case):
    rho, u, seed = case
    est = support_roof_bounds(rho, u)
    annealed = roof_upper_bound(rho, support_values_fn(u),
                                AnnealConfig(restarts=2, steps=100, seed=seed),
                                anchors=_minimal(u))
    assert est.upper_bound <= annealed.value


@SETTINGS
@hypothesis.given(excluded_states(_positive))
def test_nonpositivity_columns_lie_between_the_state_and_annealing(case):
    rho, u, seed = case
    est = nonpositivity_roof_bounds(rho, u)
    values = nonpositivity_values_fn(u)
    assert est.membership.verdict == "outside" and est.dual_bound is None
    assert est.upper_bound >= total_nonpositivity(kd_table(rho, u)) - 1e-9
    annealed = roof_upper_bound(rho, values, AnnealConfig(restarts=2, steps=100, seed=seed),
                                anchors=_positive(u))
    assert est.upper_bound <= annealed.value
    dec = est.upper_decomposition
    dec.validate(rho)
    assert dec.weights @ values(dec.states) == pytest.approx(est.upper_bound, abs=1e-9)
