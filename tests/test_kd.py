import numpy as np
import pytest

from kdwitness import (
    DimensionMismatch,
    SPIN1,
    is_kd_positive,
    kd_table,
    min_overlap,
    rho_lambda,
    total_nonpositivity,
    worst_entry,
)
from kdwitness.linalg import haar_unitary, projector, random_density
from kdwitness.studies import dft_matrix


def test_basis_state_table():
    u = haar_unitary(3, seed=2)
    table = kd_table(np.array([1.0, 0.0, 0.0]), u)
    expected = np.zeros((3, 3))
    expected[0] = np.abs(u[0]) ** 2
    assert np.allclose(table.table, expected, atol=1e-12)
    assert is_kd_positive(table)
    assert total_nonpositivity(table) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_table():
    u = SPIN1.transition
    table = kd_table(np.eye(3) / 3.0, u)
    assert np.allclose(table.table, np.abs(u) ** 2 / 3.0, atol=1e-14)
    assert is_kd_positive(table)


def test_witness_table_is_positive():
    table = kd_table(SPIN1.witness, SPIN1.transition)
    assert table.table.real.min() >= -1e-10
    assert np.abs(table.table.imag).max() <= 1e-10
    assert is_kd_positive(table)
    assert total_nonpositivity(table) == pytest.approx(1.0, abs=1e-9)


def test_minimal_state_with_unbalanced_weights_is_not_positive():
    psi1 = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
    table = kd_table(psi1, SPIN1.transition)
    assert not is_kd_positive(table)
    # Direct-summation oracle for the total nonpositivity.
    u = SPIN1.transition
    rho = projector(psi1)
    oracle = sum(
        abs(np.conj(u[i, j]) * (rho @ u)[i, j]) for i in range(3) for j in range(3)
    )
    assert oracle == pytest.approx(17.0 / 15.0, abs=1e-12)
    assert total_nonpositivity(table) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_marginal_identities(d):
    rng = np.random.default_rng(40 + d)
    for k in range(50):
        rho = random_density(d, rng)
        u = haar_unitary(d, seed=1000 * d + k)
        table = kd_table(rho, u)
        rows = table.table.sum(axis=1)
        cols = table.table.sum(axis=0)
        assert np.abs(rows.imag).max() <= 1e-9
        assert np.abs(cols.imag).max() <= 1e-9
        assert np.allclose(rows.real, np.diagonal(rho).real, atol=1e-9)
        assert np.allclose(
            cols.real, np.diagonal(u.conj().T @ rho @ u).real, atol=1e-9
        )
        assert abs(table.total - 1.0) <= 1e-9
        table.validate()


def test_table_linearity():
    rng = np.random.default_rng(7)
    u = haar_unitary(3, seed=77)
    rho1 = random_density(3, rng)
    rho2 = random_density(3, rng)
    t = 0.3
    mixed = kd_table(t * rho1 + (1 - t) * rho2, u).table
    combo = t * kd_table(rho1, u).table + (1 - t) * kd_table(rho2, u).table
    assert np.abs(mixed - combo).max() <= 1e-12


def test_faithfulness_on_random_states():
    rng = np.random.default_rng(11)
    for k in range(200):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng)
        u = haar_unitary(d, seed=5000 + k)
        table = kd_table(rho, u)
        n = total_nonpositivity(table)
        assert n >= 1.0 - 1e-9
        assert is_kd_positive(table) == (n <= 1.0 + 2e-9)


def test_faithfulness_on_constructed_positive_states():
    rng = np.random.default_rng(13)
    for k in range(50):
        d = int(rng.integers(2, 5))
        u = haar_unitary(d, seed=9000 + k)
        w_a = rng.dirichlet(np.ones(d))
        w_b = rng.dirichlet(np.ones(d))
        t = rng.uniform()
        rho = t * np.diag(w_a).astype(complex)
        rho += (1 - t) * (u * w_b) @ u.conj().T
        table = kd_table(rho, u)
        assert is_kd_positive(table)
        assert total_nonpositivity(table) == pytest.approx(1.0, abs=2e-9)


def test_convexity_of_total_nonpositivity():
    rng = np.random.default_rng(23)
    u = haar_unitary(3, seed=4)
    for _ in range(100):
        rho1 = random_density(3, rng)
        rho2 = random_density(3, rng)
        t = float(rng.uniform())
        lhs = total_nonpositivity(kd_table(t * rho1 + (1 - t) * rho2, u))
        rhs = t * total_nonpositivity(kd_table(rho1, u)) + (1 - t) * total_nonpositivity(
            kd_table(rho2, u)
        )
        assert lhs <= rhs + 1e-9


def test_min_overlap_values():
    assert min_overlap(SPIN1.transition) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert min_overlap(dft_matrix(2)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert min_overlap(np.eye(3)) == 0.0


def test_worst_entry_flags_the_negative_entry():
    psi1 = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
    i, j, value, offence = worst_entry(kd_table(psi1, SPIN1.transition))
    assert (i, j) == (0, 0)
    assert value.real == pytest.approx(-1.0 / 15.0, abs=1e-12)
    assert offence == pytest.approx(1.0 / 15.0, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kd_table(np.eye(2) / 2.0, SPIN1.transition)


def test_rho_lambda_stays_positive():
    for lam in (0.1, 0.25, 0.5, 4.0 / 7.0):
        table = kd_table(rho_lambda(lam), SPIN1.transition)
        assert is_kd_positive(table)
        assert total_nonpositivity(table) == pytest.approx(1.0, abs=2e-9)
