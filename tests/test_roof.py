import math
from dataclasses import replace

import numpy as np
import pytest

from kdwitness import (
    AnnealConfig,
    CertificateError,
    NotIsometry,
    SPIN1,
    SolverStall,
    ValidationError,
    decomposition_from_isometry,
    dft_matrix,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    haar_unitary,
    hermitian_eig,
    kd_table,
    membership_lp,
    nonpositivity_roof_bounds,
    rho_lambda,
    roof_upper_bound,
    support_roof_bounds,
    total_nonpositivity,
)
from kdwitness import basis, config, roof
from kdwitness.geometry import hermitian_to_real
from kdwitness.linalg import (
    complex_gaussian,
    projector,
    random_density,
    random_isometry,
    random_pure_state,
)
from kdwitness.roof import nonpositivity_values_fn, support_values_fn

LIGHT = AnnealConfig(restarts=6, steps=400, seed=0)


# -- reference: the annealer one restart at a time -----------------------------


def _reference_decomposition(eig, v):
    mu = eig.eigenvalues
    r = int(np.count_nonzero(mu > 1e-10))
    mixed = v * np.sqrt(mu[:r])[None, :]
    raw = mixed @ eig.eigenvectors[:, :r].T
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    keep = weights > 1e-12
    weights = weights[keep]
    return weights, raw[keep] / np.sqrt(weights)[:, None]


def _reference_polar(matrix):
    u, _, vh = np.linalg.svd(matrix, full_matrices=False)
    return u @ vh


def _reference_psd_sqrt(matrix):
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _reference_sparsify(v, member, row, t):
    pinned = np.sqrt(t) * row
    r = v.shape[1]
    residual = np.eye(r) - np.outer(pinned.conj(), pinned)
    shrink = _reference_psd_sqrt(residual)
    rotated = _reference_polar(np.delete(v, member, axis=0)) @ shrink
    out = np.empty_like(v)
    out[member] = pinned
    out[np.arange(v.shape[0]) != member] = rotated
    return out


def _reference_roof_upper_bound(rho, values_fn, cfg, anchors=None):
    """Value, restart values and decomposition, annealing one restart after another."""
    eig = hermitian_eig(rho)
    rank = int(np.count_nonzero(eig.eigenvalues > 1e-10))
    vectors = eig.eigenvectors[:, :rank]
    rows, t_max = [], []
    for chi in anchors if anchors is not None else ():
        coeff = vectors.conj().T @ np.asarray(chi, dtype=complex)
        if float(np.vdot(coeff, coeff).real) < 1e-12:
            continue
        rows.append(coeff / np.sqrt(eig.eigenvalues[:rank]))
        t_max.append(1.0 / float(np.vdot(rows[-1], rows[-1]).real))

    def evaluate(v):
        weights, states = _reference_decomposition(eig, v)
        return float(weights @ values_fn(states)), (weights, states)

    n = rank * rank
    temps = roof.T_START * (roof.T_END / roof.T_START) ** (
        np.arange(cfg.steps) / max(1, cfg.steps - 1)
    )
    best_value, best_dec, restart_values = math.inf, None, []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        if restart == 0:
            v = np.zeros((n, rank), dtype=complex)
            v[:rank, :rank] = np.eye(rank)
        else:
            v = random_isometry(n, rank, rng)
        value, dec = evaluate(v)
        local_best, local_dec = value, dec
        for temp in temps:
            if rows and rng.uniform() < roof.SPARSIFY_PROB:
                member = int(rng.integers(n))
                which = int(rng.integers(len(rows)))
                t = float(rng.uniform(0.3, 1.0)) * t_max[which]
                proposal = _reference_sparsify(v, member, rows[which], t)
            else:
                sigma = roof.PROPOSAL_SCALE * math.sqrt(temp)
                proposal = _reference_polar(v + sigma * complex_gaussian(v.shape, rng))
            new_value, new_dec = evaluate(proposal)
            delta = new_value - value
            if delta <= 0.0 or rng.uniform() < math.exp(-delta / temp):
                v, value, dec = proposal, new_value, new_dec
                if value < local_best:
                    local_best, local_dec = value, dec
        restart_values.append(local_best)
        if local_best < best_value:
            best_value, best_dec = local_best, local_dec
    return best_value, tuple(restart_values), best_dec


def _assert_matches_reference(rho, values_fn, cfg, anchors):
    value, restart_values, (weights, states) = _reference_roof_upper_bound(
        rho, values_fn, cfg, anchors
    )
    res = roof_upper_bound(rho, values_fn, cfg, anchors=anchors)
    assert res.value == value
    assert res.restart_values == restart_values
    assert res.decomposition.weights.tobytes() == weights.tobytes()
    assert res.decomposition.states.tobytes() == states.tobytes()


def _objective(name, u):
    return support_values_fn(u) if name == "support" else nonpositivity_values_fn(u)


SPIN1_ANCHORS = {"support": SPIN1.min_uncertainty_states, "nonpos": SPIN1.positive_states}


def _haar4_state(rank, seed):
    g = complex_gaussian((4, rank), np.random.default_rng(seed))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("objective", ["support", "nonpos"])
@pytest.mark.parametrize("lam", [0.1, 0.5, 4.0 / 7.0])
def test_lock_step_matches_reference_on_spin1(lam, objective):
    _assert_matches_reference(
        rho_lambda(lam),
        _objective(objective, SPIN1.transition),
        AnnealConfig(restarts=3, steps=150, seed=2),
        SPIN1_ANCHORS[objective],
    )


@pytest.mark.parametrize("objective", ["support", "nonpos"])
@pytest.mark.parametrize("rank", [2, 3])
def test_lock_step_matches_reference_without_anchors(rank, objective):
    _assert_matches_reference(
        _haar4_state(rank, 30 + rank),
        _objective(objective, haar_unitary(4, 21)),
        AnnealConfig(restarts=3, steps=150, seed=5),
        None,
    )


@pytest.mark.parametrize(
    "cfg", [AnnealConfig(restarts=1, steps=200, seed=4)], ids=["one_restart"]
)
def test_lock_step_matches_reference_on_edge_configs(cfg):
    _assert_matches_reference(
        rho_lambda(0.5),
        nonpositivity_values_fn(SPIN1.transition),
        cfg,
        SPIN1.positive_states,
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 0),
        ("steps", -1),
        ("seed", -1),
        ("seed", 1.5),
        ("restarts", 2.0),
        ("steps", "3"),
        ("restarts", True),
        ("seed", False),
    ],
)
def test_anneal_config_rejects_bad_values(field, value):
    with pytest.raises(ValidationError, match=field):
        AnnealConfig(**{field: value})


def test_anneal_config_accepts_boundary_values():
    cfg = AnnealConfig(restarts=1, steps=0)
    res = roof_upper_bound(rho_lambda(0.5), nonpositivity_values_fn(SPIN1.transition), cfg)
    assert res.restart_values == (res.value,)
    assert AnnealConfig(restarts=np.int64(2), steps=np.int32(0), seed=np.uint8(0)).restarts == 2


@pytest.mark.parametrize("anchor, message", [(np.ones(4) / 2.0, "anchor 1 has 4 entries, not 3"),
                                             (2.0 * SPIN1.positive_states[0], "norm")],
                         ids=["length", "norm"])
def test_roof_upper_bound_refuses_an_anchor_that_is_not_a_unit_d_vector(anchor, message):
    with pytest.raises(ValidationError, match=message):
        roof_upper_bound(rho_lambda(0.5), nonpositivity_values_fn(SPIN1.transition), LIGHT,
                         anchors=[SPIN1.positive_states[1], anchor])


@pytest.mark.parametrize("rank, anchors", [(2, None), (3, SPIN1.positive_states)],
                         ids=["rank2", "rank3_anchored"])
def test_each_annealer_step_scores_one_decomposition(monkeypatch, rank, anchors):
    # kdbench's tracer reads the steps off these calls: R (S + 1) of them, a start
    # and S proposals per restart.
    calls = []
    scored = roof.decomposition_from_isometry

    def counting(*args):
        calls.append(args)
        return scored(*args)

    monkeypatch.setattr(roof, "decomposition_from_isometry", counting)
    rho = rho_lambda(4.0 / 7.0) if rank == 2 else rho_lambda(0.5)
    assert np.count_nonzero(hermitian_eig(rho).eigenvalues > config.RANK_CUTOFF) == rank
    cfg = AnnealConfig(restarts=3, steps=40, seed=1)
    res = roof_upper_bound(rho, nonpositivity_values_fn(SPIN1.transition), cfg, anchors=anchors)
    assert len(calls) == cfg.restarts * (cfg.steps + 1)
    assert len(res.restart_values) == cfg.restarts


# -- the roofs take states, and only states -------------------------------------

NOT_STATES = {"negative": lambda: rho_lambda(0.8), "trace2": lambda: 2.0 * rho_lambda(0.3)}


@pytest.mark.parametrize("case", sorted(NOT_STATES))
def test_the_roofs_refuse_a_matrix_that_is_not_a_state(case):
    rho = NOT_STATES[case]()
    message = "negative eigenvalue" if case == "negative" else "trace"
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        with pytest.raises(ValidationError, match=message):
            roof_bounds(rho, SPIN1.transition)
    with pytest.raises(ValidationError, match=message):
        roof_upper_bound(rho, nonpositivity_values_fn(SPIN1.transition), LIGHT)


@pytest.mark.parametrize("rank", [1, 3])
def test_the_roofs_take_a_state_whose_trace_is_off_within_tolerance(rank):
    rho = rho_lambda(0.5) if rank == 3 else projector(SPIN1.min_uncertainty_states[9])
    off = rho * (1.0 + 5e-10)
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        est, exact = roof_bounds(off, SPIN1.transition), roof_bounds(rho, SPIN1.transition)
        assert est.upper_bound == pytest.approx(exact.upper_bound, rel=1e-8)
        assert est.lower_certificate == exact.lower_certificate
        # A rank-one state's one member, of weight 1, decomposes rho / Tr rho.
        est.upper_decomposition.validate(off if rank > 1 else off / np.trace(off).real)


def test_an_inside_decomposition_sums_to_the_trace_of_its_state():
    # The hull route's weights sum to Tr rho, not to 1.
    w = np.random.default_rng(7).dirichlet(np.ones(9))
    rho = sum(wi * projector(s) for wi, s in zip(w, SPIN1.positive_states))
    off = rho * (1.0 + 5e-10)
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        est, exact = roof_bounds(off, SPIN1.transition), roof_bounds(rho, SPIN1.transition)
        assert est.exact and est.membership.verdict == "inside"
        assert est.upper_bound == exact.upper_bound
        est.upper_decomposition.validate(off)


def test_the_roofs_refuse_a_state_whose_cut_eigenvalues_miss_its_trace():
    # validate_density takes eigenvalues down to -1e-9; the search keeps those above
    # RANK_CUTOFF, so its weights would sum to Tr rho + 1.67e-10 here.
    rho = rho_lambda(4.0 / 7.0 + 1e-9)
    assert -1e-9 < np.linalg.eigvalsh(rho)[0] < -config.RANK_CUTOFF
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        with pytest.raises(ValidationError, match="RANK_CUTOFF = 1e-10 sum to"):
            roof_bounds(rho, SPIN1.transition)


def test_the_roofs_scale_the_kept_eigenvalues_of_a_state_with_cut_weight_to_its_trace():
    # Eigenvalues in (0, RANK_CUTOFF] summing to 1.8e-10: the search decomposes the
    # kept ones, scaled to Tr rho, and its decomposition is checked against rho.
    cut = [0.5, 0.5 - 1.8e-10, 9e-11, 9e-11]
    est = nonpositivity_roof_bounds(np.diag(cut), dft_matrix(4))
    assert (est.lower_bound, est.upper_bound) == (1.0, 1.0) and est.exact
    v = haar_unitary(4, 11)
    rho = (v * cut) @ v.conj().T
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        est = roof_bounds(rho, haar_unitary(4, 3))
        assert est.lower_bound <= est.upper_bound
        assert est.upper_decomposition.weights.sum() == pytest.approx(1.0, abs=1e-15)
        est.upper_decomposition.validate(rho)


def test_a_decomposition_sums_to_the_trace_of_its_state():
    rho = rho_lambda(0.5)
    dec = decomposition_from_isometry(hermitian_eig(rho), np.eye(3))
    t = 1.0 + 5e-10
    roof.Decomposition(dec.weights * t, dec.states).validate(rho * t)
    with pytest.raises(CertificateError, match="weights sum to"):
        dec.validate(rho * t)


def _tampered(search, tamper):
    def changed(res):
        if tamper == "value":
            return replace(res, value=res.value + 1e-3)
        dec = roof.Decomposition(res.decomposition.weights * 1.01, res.decomposition.states)
        return replace(res, decomposition=dec)

    def wrapped(*args, **kwargs):
        res = search(*args, **kwargs)
        # _columns returns the search result first, then W and the last pricing.
        return (changed(res[0]), *res[1:]) if isinstance(res, tuple) else changed(res)

    return wrapped


@pytest.mark.parametrize("tamper", ["value", "weights"])
def test_annealed_upper_bound_is_rechecked(monkeypatch, tamper):
    monkeypatch.setattr(roof, "_support_columns", _tampered(roof._support_columns, tamper))
    with pytest.raises(CertificateError):
        support_roof_bounds(rho_lambda(0.5), SPIN1.transition)
    # The nonpositivity roof by column generation, of a hull-excluded state and of
    # a state of the identity basis pair, which is not completely incompatible.
    monkeypatch.setattr(roof, "_columns", _tampered(roof._columns, tamper))
    with pytest.raises(CertificateError):
        nonpositivity_roof_bounds(rho_lambda(0.5), SPIN1.transition)
    with pytest.raises(CertificateError):
        nonpositivity_roof_bounds(random_density(3, np.random.default_rng(8)), np.eye(3))


def _no_hull_route_state(case):
    """A state and a basis pair that is not completely incompatible: (rho, u)."""
    if case == "dft4":
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        return 0.7 * projector(psi) + 0.3 * np.eye(4) / 4.0, dft_matrix(4)
    if case == "dft6_rank6":
        g = complex_gaussian((6, 6), np.random.default_rng(2006))
        return g @ g.conj().T / np.trace(g @ g.conj().T).real, dft_matrix(6)
    return random_density(3, np.random.default_rng(8)), np.eye(3)


@pytest.mark.parametrize("case", ["dft4", "dft6_rank6", "identity3"])
def test_nonpositivity_roof_without_hull_route_is_at_or_below_the_annealed_bound(case):
    rho, u = _no_hull_route_state(case)
    est = nonpositivity_roof_bounds(rho, u)
    assert est.membership is None and est.lower_certificate == "convexity"
    values = nonpositivity_values_fn(u)
    annealed = roof_upper_bound(rho, values, AnnealConfig(restarts=4, steps=300, seed=0))
    # On the identity pair every decomposition scores 1, up to rounding.
    assert est.lower_bound <= est.upper_bound <= annealed.value + 1e-12
    dec = est.upper_decomposition
    dec.validate(rho)
    assert float(dec.weights @ values(dec.states)) == pytest.approx(est.upper_bound, abs=1e-9)


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
    est = support_roof_bounds(rho, SPIN1.transition)
    assert est.exact
    assert est.lower_bound == est.upper_bound == 4.0
    assert not est.lower_strict
    assert est.upper_decomposition is not None
    est.upper_decomposition.validate(rho)


@pytest.mark.parametrize("lam", [0.1, 0.3, 4.0 / 7.0])
def test_support_roof_certifies_counterexample(lam):
    est = support_roof_bounds(rho_lambda(lam), SPIN1.transition)
    assert est.lower_strict
    assert est.lower_bound == 4.0
    assert est.lower_certificate == "hull_membership"
    assert est.membership.verdict == "outside"
    assert est.upper_bound > 4.0
    assert not est.exact


def test_support_roof_pure_minimal_state():
    est = support_roof_bounds(
        projector(SPIN1.min_uncertainty_states[9]), SPIN1.transition)
    assert est.exact
    assert est.lower_bound == est.upper_bound == 4.0
    assert est.lower_certificate == "rank_one"


def test_nonpositivity_roof_exact_on_maximally_mixed():
    est = nonpositivity_roof_bounds(np.eye(3) / 3.0, SPIN1.transition)
    assert est.exact
    assert est.lower_bound == est.upper_bound == 1.0
    assert est.membership.verdict == "inside"


def test_nonpositivity_roof_counterexample():
    est = nonpositivity_roof_bounds(rho_lambda(0.5), SPIN1.transition)
    assert est.base_value == pytest.approx(1.0, abs=2e-9)
    assert est.lower_strict
    assert est.lower_bound == 1.0
    assert est.upper_bound > 1.0 + 1e-4
    assert not est.exact


def test_nonpositivity_roof_rank_one():
    est = nonpositivity_roof_bounds(
        projector(SPIN1.min_uncertainty_states[9]), SPIN1.transition
    )
    assert est.exact
    assert est.lower_bound == est.upper_bound == pytest.approx(17.0 / 15.0, abs=1e-12)


def test_nonpositivity_roof_accepts_supplied_generators():
    est = nonpositivity_roof_bounds(
        rho_lambda(0.25),
        SPIN1.transition,
        positive_pure=SPIN1.positive_states,
    )
    assert est.generator_provenance == "supplied"
    assert est.lower_strict


def test_both_roofs_refuse_a_transition_that_is_not_unitary():
    for roof_bounds in (support_roof_bounds, nonpositivity_roof_bounds):
        with pytest.raises(ValidationError, match="not unitary"):
            roof_bounds(np.eye(3) / 3.0, 2.0 * haar_unitary(3, 1))


def test_supplied_generators_are_checked():
    # The basis states of both bases are KD positive; psi is not, and the
    # mixture of it with I / 3 lies in the hull of all seven.
    u = haar_unitary(3, 1)
    psi = random_pure_state(3, np.random.default_rng(0))
    assert total_nonpositivity(kd_table(psi, u)) > 1.3
    rho = projector(psi) / 2.0 + np.eye(3) / 6.0
    states = [*np.eye(3), *u.T]
    assert nonpositivity_roof_bounds(rho, u, positive_pure=states).generator_provenance == "supplied"
    with pytest.raises(ValidationError, match="positive_pure state 6 is not KD positive"):
        nonpositivity_roof_bounds(rho, u, positive_pure=[*states, psi])
    with pytest.raises(ValidationError, match="positive_pure state 1 has 2 entries, not 3"):
        nonpositivity_roof_bounds(rho, u, positive_pure=[states[0], np.array([1.0, 0.0])])
    with pytest.raises(ValidationError, match="norm"):
        nonpositivity_roof_bounds(rho, u, positive_pure=[2.0 * states[0]])


def test_convexity_sandwich_on_random_states():
    rng = np.random.default_rng(6)
    for k in range(5):
        rho = random_density(3, rng)
        est = nonpositivity_roof_bounds(rho, SPIN1.transition)
        n_plain = total_nonpositivity(kd_table(rho, SPIN1.transition))
        assert n_plain - 1e-9 <= est.upper_bound
        assert est.lower_bound <= est.upper_bound + 1e-8


def test_hand_built_positive_mixture_is_exactly_one():
    rng = np.random.default_rng(7)
    w = rng.dirichlet(np.ones(9))
    rho = sum(wi * projector(s) for wi, s in zip(w, SPIN1.positive_states))
    est = nonpositivity_roof_bounds(rho, SPIN1.transition)
    assert est.exact
    assert abs(est.upper_bound - 1.0) <= 1e-6


def test_witness_consistency_on_counterexamples():
    # A state with support roof certified above d+1 while its table is
    # positive must also get the nonpositivity-roof certificate.
    for lam in (0.1, 0.5):
        rho = rho_lambda(lam)
        support = support_roof_bounds(rho, SPIN1.transition)
        nonpos = nonpositivity_roof_bounds(rho, SPIN1.transition)
        assert support.lower_strict
        assert nonpos.lower_strict
        assert nonpos.upper_bound > 1.0


# The annealed upper bounds of rho_lambda at 4 restarts x 300 steps, seed 0.
SPIN1_ANNEALED_NONPOSITIVITY = {0.1: 1.038986, 0.25: 1.098748, 0.5: 1.158528, 4.0 / 7.0: 1.173201}


@pytest.mark.parametrize("lam", sorted(SPIN1_ANNEALED_NONPOSITIVITY))
def test_nonpositivity_roof_by_columns_is_below_the_annealed_bound(lam):
    est = nonpositivity_roof_bounds(rho_lambda(lam), SPIN1.transition)
    assert est.lower_strict and est.lower_certificate == "hull_membership"
    assert est.dual_bound is None
    assert 1.0 < est.upper_bound <= SPIN1_ANNEALED_NONPOSITIVITY[lam]


# -- the nonpositivity pricer ----------------------------------------------------


def _reference_gradient(c, w, e, u):
    """Twice the derivative of N - c^H W c in conj(c) on rows c, term by term."""
    psi = c @ e.T
    phi = psi @ u.conj()
    u_abs = np.abs(u)
    amps_a, amps_b = np.abs(psi), np.abs(phi)
    # Amplitudes within rounding of 0 have sign 0.
    noise = roof._ROUNDING * c.shape[1]
    sgn_a = np.divide(psi, amps_a, out=np.zeros_like(psi), where=amps_a > noise)
    sgn_b = np.divide(phi, amps_b, out=np.zeros_like(phi), where=amps_b > noise)
    return ((sgn_a * (amps_b @ u_abs.T) + (sgn_b * (amps_a @ u_abs)) @ u.T) @ e.conj()
            - 2.0 * c @ w.T)


def _reference_dictionary(eig, rank, anchors):
    e, mu = eig.eigenvectors[:, :rank], eig.eigenvalues[:rank]
    draws = complex_gaussian((2, roof.PRICING_DRAWS, rank), np.random.default_rng(0))
    pool = np.vstack([np.asarray(anchors) @ e.conj(), draws[0], draws[1] * np.sqrt(mu)])
    norms = np.linalg.norm(pool, axis=1)
    in_range = norms**2 > config.ANCHOR_RANGE_CUTOFF
    return pool[in_range] / norms[in_range, None]


def _reference_pricer(eig, rank, u, values, anchors):
    """The pricer with a gradient call per step and complex quadratics, refining every round."""
    e = eig.eigenvectors[:, :rank]
    pool = _reference_dictionary(eig, rank, anchors)
    pool_values = values(pool @ e.T)

    def quadratic(c, w):
        return ((c.conj() @ w) * c).sum(axis=1).real

    def price(w):
        pooled = pool_values - quadratic(pool, w)
        c = pool[np.argpartition(pooled, roof.PRICING_STARTS)[:roof.PRICING_STARTS]]
        step = roof.PRICING_STEP / max(1.0, float(np.linalg.norm(w, 2)))
        for _ in range(roof.PRICING_STEPS):
            c = c - step * _reference_gradient(c, w, e, u)
            c /= np.linalg.norm(c, axis=1, keepdims=True)
        negative = pooled < -config.LP_DUAL_TOL
        return (np.concatenate([values(c @ e.T) - quadratic(c, w), pooled[negative]]),
                np.vstack([c, pool[negative]]))

    return price


def _priced_rounds(rho, u, **kwargs):
    """The pricer's arguments and the W of every round of one nonpositivity roof of ``rho``."""
    calls = []
    pricer = roof._nonpositivity_pricer

    def recording(*args):
        price = pricer(*args)
        rounds = []
        calls.append((args, rounds))

        def recorded(w):
            rounds.append(w)
            return price(w)

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roof, "_nonpositivity_pricer", recording)
        nonpositivity_roof_bounds(rho, u, **kwargs)
    (args, rounds), = calls
    return args, rounds


def _excluded_full_rank_haar5():
    """A full-rank state of haar_unitary(5, 1005) outside the hull of its KD-positive states."""
    u = haar_unitary(5, 1005)
    positive = filter_kd_positive_pure(enumerate_min_uncertainty_states(u), u).states
    gens = [projector(s) for s in positive]
    rng = np.random.default_rng(6005)
    while True:
        g = complex_gaussian((5, 5), rng)
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        if membership_lp(rho, gens).verdict == "outside":
            return rho, u, positive


def _assert_same_columns(priced, reference, tol):
    """Equal reduced costs and columns within ``tol``, in any order."""
    (reduced, columns), (ref_reduced, ref_columns) = priced, reference
    assert columns.shape == ref_columns.shape
    distance = np.abs(columns[:, None, :] - ref_columns[None, :, :]).max(axis=2)
    match = distance.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(columns)))
    assert distance.min(axis=1).max() <= tol
    assert np.abs(reduced - ref_reduced[match]).max() <= tol


@pytest.mark.parametrize("case", ["spin1_half", "haar5_full_rank"])
def test_fused_pricing_steps_match_the_per_step_reference(monkeypatch, case):
    if case == "spin1_half":
        args, rounds = _priced_rounds(rho_lambda(0.5), SPIN1.transition)
    else:
        rho, u, positive = _excluded_full_rank_haar5()
        args, rounds = _priced_rounds(rho, u, positive_pure=positive)
    # No column prices in, so every round refines and returns its refined columns alone.
    monkeypatch.setattr(config, "LP_DUAL_TOL", math.inf)
    priced = roof._nonpositivity_pricer(*args)(rounds[0])
    assert len(priced[1]) == roof.PRICING_STARTS
    _assert_same_columns(priced, _reference_pricer(*args)(rounds[0]), 1e-12)


def test_pricing_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    u = haar_unitary(4, 3)
    e = random_isometry(4, 3, rng)
    w = complex_gaussian((3, 3), rng)
    w = w + w.conj().T
    values = nonpositivity_values_fn(u)
    c = complex_gaussian((3,), rng)
    c /= np.linalg.norm(c)

    def reduced(x):
        return float(values((x @ e.T)[None, :])[0] - (x.conj() @ w @ x).real)

    gradient = _reference_gradient(c[None, :], w, e, u)[0]
    h = 1e-6
    for k in range(3):
        for direction, part in ((1.0, gradient.real), (1j, gradient.imag)):
            step = h * direction * np.eye(3)[k]
            slope = (reduced(c + step) - reduced(c - step)) / (2.0 * h)
            assert slope == pytest.approx(part[k], abs=1e-6)


def _dictionary_distance(columns, args):
    """Distance from each column to the nearest column of the pricer's dictionary."""
    eig, rank, _, _, anchors = args
    pool = _reference_dictionary(eig, rank, anchors)
    return np.abs(columns[:, None, :] - pool[None, :, :]).max(axis=2).min(axis=1)


def test_a_round_with_enough_dictionary_columns_skips_refinement():
    args, rounds = _priced_rounds(rho_lambda(0.5), SPIN1.transition)
    rank = args[1]
    reduced, columns = roof._nonpositivity_pricer(*args)(rounds[0])
    assert len(columns) >= rank * rank
    assert (reduced < -config.LP_DUAL_TOL).all()
    assert _dictionary_distance(columns, args).max() <= 1e-15


def test_a_round_short_of_dictionary_columns_still_refines():
    args, rounds = _priced_rounds(rho_lambda(0.5), SPIN1.transition)
    rank = args[1]
    # Column generation stopped after its last round: nothing priced below -LP_DUAL_TOL.
    reference = _reference_pricer(*args)(rounds[-1])
    assert np.count_nonzero(reference[0] < -config.LP_DUAL_TOL) < rank * rank
    _, columns = roof._nonpositivity_pricer(*args)(rounds[-1])
    off_dictionary = _dictionary_distance(columns, args) > 1e-9
    assert np.count_nonzero(off_dictionary) == roof.PRICING_STARTS


# -- the rounds of column generation ------------------------------------------


def _master_columns(monkeypatch, rho, u, **kwargs):
    """The columns of every master LP of one nonpositivity roof of ``rho``, and the roof."""
    columns = []
    solve = roof.solve_equality_lp

    def recording(a, *args, **kw):
        columns.append(a.shape[1])
        return solve(a, *args, **kw)

    monkeypatch.setattr(roof, "solve_equality_lp", recording)
    return columns, nonpositivity_roof_bounds(rho, u, **kwargs)


@pytest.mark.parametrize("cap", [1, 2])
def test_nonpositivity_roof_at_the_round_cap_returns_its_last_master(monkeypatch, cap):
    monkeypatch.setattr(roof, "MAX_COLUMN_ROUNDS", cap)
    rho = rho_lambda(0.5)
    columns, est = _master_columns(monkeypatch, rho, SPIN1.transition)
    assert len(columns) == cap
    dec = est.upper_decomposition
    dec.validate(rho)
    values = nonpositivity_values_fn(SPIN1.transition)(dec.states)
    assert dec.weights @ values == pytest.approx(est.upper_bound, rel=0.0, abs=1e-12)
    # Uncapped, column generation goes on to about 1.1157.
    assert est.upper_bound > 1.116


@pytest.mark.parametrize("case", ["spin1_half", "haar5_full_rank"])
def test_each_round_admits_at_most_the_column_budget(monkeypatch, case):
    if case == "spin1_half":
        rho, u, kwargs = rho_lambda(0.5), SPIN1.transition, {}
    else:
        rho, u, positive = _excluded_full_rank_haar5()
        kwargs = {"positive_pure": positive}
    rank = int(np.count_nonzero(hermitian_eig(rho).eigenvalues > config.RANK_CUTOFF))
    columns, _ = _master_columns(monkeypatch, rho, u, **kwargs)
    growth = np.diff(columns)
    assert len(growth) and growth.min() >= 1
    assert growth.max() == roof.COLUMNS_PER_ROW * rank * rank


@pytest.mark.parametrize("d", range(2, 7))
def test_projector_points_are_the_bits_of_the_outer_products(d):
    rng = np.random.default_rng(d)
    for shape in [(d,), (1, d), (64, d), (2, 3, d), (0, d)]:
        states = complex_gaussian(shape, rng)
        expected = hermitian_to_real(states[..., :, None] * states[..., None, :].conj())
        points = roof._projector_points(states)
        assert points.shape == expected.shape == shape[:-1] + (d * d,)
        assert points.tobytes() == expected.tobytes()


# -- the support roof by column generation ------------------------------------

# The support roofs of rho_lambda, as other solvers give them to 6 digits.
SPIN1_SUPPORT_ROOFS = {0.1: 4.120711, 0.25: 4.301777, 0.5: 113 / 24, 4.0 / 7.0: 5.0}


def _excluded_haar4(rank):
    u = haar_unitary(4, 3)
    gens = [projector(s) for s in enumerate_min_uncertainty_states(u).states]
    rng = np.random.default_rng(40 + rank)
    while True:
        g = complex_gaussian((4, rank), rng)
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        if membership_lp(rho, gens).verdict == "outside":
            return rho, u


def _support_groups(rho, u):
    eig = hermitian_eig(rho)
    rank = int(np.count_nonzero(eig.eigenvalues > config.RANK_CUTOFF))
    family = roof._support_subspaces(np.asarray(u, dtype=complex))
    return roof._compressed_subspaces(family, eig.eigenvectors[:, :rank]), rank


def _legendre_bound(w, rho, u):
    """Tr(W rho) + min (|S| + |T| - lambda_max of W on V_{S,T} in range(rho)), pair by pair."""
    d = u.shape[0]
    vals, vecs = np.linalg.eigh(rho)
    rows_off_range = list(vecs[:, vals <= 1e-10].conj().T)
    best = math.inf
    for a in range(1, 2**d):
        for b in range(1, 2**d):
            s = [i for i in range(d) if a >> i & 1]
            t = [j for j in range(d) if b >> j & 1]
            rows = ([np.eye(d)[i] for i in range(d) if i not in s]
                    + [u[:, j].conj() for j in range(d) if j not in t] + rows_off_range)
            null = np.eye(d)
            if rows:
                sing, vh = np.linalg.svd(np.array(rows))[1:]
                null = vh[int(np.count_nonzero(sing > 1e-9)):].conj().T
            if null.shape[1]:
                lam = np.linalg.eigvalsh(null.conj().T @ w @ null)[-1]
                best = min(best, len(s) + len(t) - lam)
    return float(np.trace(w @ rho).real) + best


@pytest.mark.parametrize("lam", sorted(SPIN1_SUPPORT_ROOFS))
def test_support_roof_bounds_meet_on_spin1(lam):
    rho = rho_lambda(lam)
    est = support_roof_bounds(rho, SPIN1.transition)
    assert est.lower_bound == 4.0 and est.lower_strict and not est.exact
    assert 4.0 < est.dual_bound <= est.upper_bound <= est.dual_bound + 2e-7
    assert est.upper_bound == pytest.approx(SPIN1_SUPPORT_ROOFS[lam], abs=1e-6)
    assert len(est.upper_decomposition.weights) <= 6
    w = est.dual_witness
    assert w.shape == (3, 3) and np.abs(w - w.conj().T).max() <= 1e-12
    # The reported W gives the dual bound by a pair-by-pair recomputation,
    # within the margin for states only near their subspace.
    legendre = _legendre_bound(w, rho, SPIN1.transition)
    assert est.dual_bound <= legendre <= est.dual_bound + 1e-6


@pytest.mark.parametrize("rank", [2, 3])
def test_support_roof_bounds_on_excluded_haar_states(rank):
    rho, u = _excluded_haar4(rank)
    est = support_roof_bounds(rho, u)
    assert est.lower_strict and est.lower_bound == 5.0
    assert 5.0 < est.dual_bound <= est.upper_bound <= est.dual_bound + 1e-6
    est.upper_decomposition.validate(rho)
    legendre = _legendre_bound(est.dual_witness, rho, u)
    assert est.dual_bound <= legendre <= est.dual_bound + 1e-6


def test_inside_mixtures_never_build_the_support_subspaces():
    basis.clear_cache()
    est = support_roof_bounds(np.eye(3) / 3.0, SPIN1.transition)
    assert est.exact and est.dual_bound is None and est.dual_witness is None
    assert roof._support_subspaces.cache_info().currsize == 0


@pytest.mark.parametrize("u", [SPIN1.transition, haar_unitary(4, 3), haar_unitary(5, 5)],
                         ids=["spin1", "haar4", "haar5"])
def test_support_subspaces_of_an_incompatible_basis_are_the_pairs_above_d(u):
    d = u.shape[0]
    family = roof._support_subspaces(np.asarray(u, dtype=complex))
    counts = {count: len(rows) for count, rows in family}
    assert counts == {n: math.comb(2 * d, n) for n in range(d + 1, 2 * d + 1)}


@pytest.mark.parametrize("case", [lambda: (rho_lambda(0.3), SPIN1.transition),
                                  lambda: (rho_lambda(4.0 / 7.0), SPIN1.transition),
                                  lambda: _excluded_haar4(3)],
                         ids=["spin1", "spin1_rank2", "haar4_rank3"])
def test_stacked_pricing_matches_a_per_subspace_loop(case):
    rho, u = case()
    groups, rank = _support_groups(rho, u)
    g = complex_gaussian((rank, rank), np.random.default_rng(3))
    w = g + g.conj().T
    reduced, tops = roof._price(w, groups)
    subspaces = [(cost, z) for costs, bases, _ in groups for cost, z in zip(costs, bases)]
    assert len(reduced) == len(tops) == len(subspaces)
    for i, (cost, z) in enumerate(subspaces):
        lam, vecs = np.linalg.eigh(z.conj().T @ w @ z)
        assert reduced[i] == pytest.approx(cost - lam[-1], abs=1e-12)
        assert abs(np.vdot(z @ vecs[:, -1], tops[i])) == pytest.approx(1.0, abs=1e-9)


def test_support_dual_bound_rejects_a_perturbed_w(monkeypatch):
    price = roof._price

    def perturbed(w, groups):
        return price(w + np.diag([1e-3] + [0.0] * (len(w) - 1)), groups)

    monkeypatch.setattr(roof, "_price", perturbed)
    with pytest.raises(CertificateError, match="fresh pass"):
        support_roof_bounds(rho_lambda(0.3), SPIN1.transition)


def test_support_dual_bound_rejects_pricing_that_skips_subspaces(monkeypatch):
    price = roof._price
    # Pricing without the one-dimensional subspaces, the minimal states.
    monkeypatch.setattr(roof, "_price", lambda w, groups: price(w, groups[1:]))
    with pytest.raises(CertificateError, match="fresh pass"):
        support_roof_bounds(rho_lambda(0.3), SPIN1.transition)


def test_support_master_lp_errors_propagate(monkeypatch):
    def stalled(*args, **kwargs):
        raise SolverStall("stalled")

    monkeypatch.setattr(roof, "solve_equality_lp", stalled)
    with pytest.raises(SolverStall):
        support_roof_bounds(rho_lambda(0.3), SPIN1.transition)


def test_support_bracket_at_the_round_cap_holds_the_roof(monkeypatch):
    monkeypatch.setattr(roof, "MAX_COLUMN_ROUNDS", 1)
    est = support_roof_bounds(rho_lambda(0.1), SPIN1.transition)
    assert est.dual_bound < SPIN1_SUPPORT_ROOFS[0.1] - 1e-3
    assert est.upper_bound > SPIN1_SUPPORT_ROOFS[0.1] + 1e-3
    est.upper_decomposition.validate(rho_lambda(0.1))
