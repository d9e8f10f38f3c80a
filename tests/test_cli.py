import json
import math
import pathlib
import re

import numpy as np
import pytest

from kdwitness import (
    SPIN1,
    CertificateError,
    OutsideHull,
    dft_matrix,
    haar_unitary,
    is_kd_positive,
    kd_table,
    rho_lambda,
)
from kdwitness import basis, cli, config, geometry, io_json
from kdwitness.cli import main
from kdwitness.io_json import load_matrix_file, save_matrix_file
from kdwitness.linalg import projector

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "basis": root / "basis.json",
        "rho05": root / "rho05.json",
        "psi1": root / "psi1.json",
        "pos0": root / "pos0.json",
        "mixed": root / "mixed.json",
        "basis2": root / "basis2.json",
        "state2": root / "state2.json",
    }
    save_matrix_file(paths["basis"], SPIN1.transition, "unitary")
    save_matrix_file(paths["rho05"], rho_lambda(0.5), "density")
    save_matrix_file(paths["psi1"], SPIN1.min_uncertainty_states[9], "pure_state")
    save_matrix_file(paths["pos0"], SPIN1.positive_states[0], "pure_state")
    save_matrix_file(paths["mixed"], np.eye(3) / 3.0, "density")
    save_matrix_file(paths["basis2"], np.eye(2), "unitary")
    save_matrix_file(paths["state2"], np.eye(2) / 2.0, "density")
    gens = []
    for k, s in enumerate(SPIN1.min_uncertainty_states):
        p = root / f"gen{k:02d}.json"
        save_matrix_file(p, projector(s), "density")
        gens.append(p)
    paths["gens"] = gens
    return {k: (str(v) if not isinstance(v, list) else [str(x) for x in v])
            for k, v in paths.items()}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def run_report(capsys, argv):
    """Exit code and ``--json`` output of ``argv``, without its timing_seconds member."""
    code, out, _ = run(capsys, argv + ["--json"])
    report, removed = re.subn(r',"timing_seconds":[^,}]+', "", out)
    assert removed == 1 and '"results":' in report
    return code, report


def fresh_parser_report(capsys, monkeypatch, argv):
    """``run_report`` of ``argv`` from a parser built for this call alone."""
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return run_report(capsys, argv)


def test_table_human(files, capsys):
    code, out, _ = run(capsys, ["table", "--state", files["rho05"],
                                "--basis", files["basis"]])
    assert code == 0
    assert "KD positive: True" in out
    assert "total nonpositivity: 1" in out


def test_table_dimension_mismatch_is_a_validation_error(files, capsys):
    mixed_generators = [*files["gens"][:2], files["state2"], files["gens"][2]]
    for argv in (["table", "--state", files["state2"], "--basis", files["basis"]],
                 ["facets", "--generators", *mixed_generators]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "validation error" in err


def test_usage_error(files, capsys, monkeypatch):
    code, _, err = run(capsys, ["table", "--state", files["rho05"]])
    assert code == 1
    assert "usage error" in err
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # The shared parser serves the next valid command as a fresh one would.
    argv = ["table", "--state", files["rho05"], "--basis", files["basis"]]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["results"]["kd_positive"]["value"] is True
    assert run_report(capsys, argv) == fresh_parser_report(capsys, monkeypatch, argv)


def test_support_dispatches_on_kind(files, capsys):
    code, doc, _ = run_json(capsys, ["support", "--state", files["psi1"],
                                     "--basis", files["basis"]])
    assert code == 0
    assert doc["results"]["state_kind"] == "pure_state"
    assert doc["results"]["n_ab"] == 4
    code, doc, _ = run_json(capsys, ["support", "--state", files["mixed"],
                                     "--basis", files["basis"]])
    assert code == 0
    assert doc["results"]["state_kind"] == "density"
    assert doc["results"]["n_ab"] == 6


def test_incompat_reports_minimizing_minor(files, capsys):
    code, doc, _ = run_json(capsys, ["incompat", "--basis", files["basis"]])
    assert code == 0
    assert doc["results"]["completely_incompatible"] is True
    assert doc["results"]["minors_checked"] == 19


def test_enumerate(files, capsys):
    code, doc, _ = run_json(capsys, ["enumerate", "--basis", files["basis"]])
    assert code == 0
    assert doc["results"]["count"] == 15
    assert doc["results"]["kd_positive_count"] == 9
    states = [np.array([complex(*z) for z in s]) for s in doc["results"]["states"]]
    expected = [k for k, s in enumerate(states)
                if is_kd_positive(kd_table(s, SPIN1.transition))]
    assert len(expected) == 9
    assert doc["results"]["kd_positive_indices"] == expected
    assert doc["config"]["null_space_abs_cutoff"] == 1e-12
    assert doc["config"]["null_space_rel_cutoff"] == 1e-10
    assert doc["config"]["null_ray_tol"] == 1e-12


def test_hull_outside(files, capsys):
    code, doc, _ = run_json(capsys, ["hull", "--state", files["rho05"],
                                     "--generators", *files["gens"]])
    assert code == 0
    cert = doc["certificates"]["membership"]
    assert cert["verdict"] == "outside"
    assert cert["margin"] > 1e-6


def test_hull_inside(files, capsys):
    code, doc, _ = run_json(capsys, ["hull", "--state", files["mixed"],
                                     "--generators", *files["gens"][:6]])
    assert code == 0
    assert doc["certificates"]["membership"]["verdict"] == "inside"


def test_a_second_hull_run_reads_its_files_from_the_cache(files, capsys):
    argv = ["hull", "--state", files["rho05"], "--generators", *files["gens"]]
    io_json._parse.cache_clear()
    code, first = run_report(capsys, argv)
    assert code == 0
    assert io_json._parse.cache_info().misses == 16
    assert run_report(capsys, argv) == (code, first)
    info = io_json._parse.cache_info()
    assert (info.hits, info.misses) == (16, 16)


def test_hull_tolerance_below_the_floor_is_a_validation_error(files, capsys):
    code, doc, _ = run_json(capsys, ["hull", "--state", files["mixed"],
                                     "--generators", *files["gens"][:6], "--tol", "0"])
    assert code == 2
    assert doc["error"]["category"] == "validation"
    assert "MEMBERSHIP_TOL_FLOOR" in doc["error"]["message"]


def test_hull_indeterminate_exit_code(files, capsys, tmp_path):
    thin = np.eye(2) / 2.0 + 3e-8 * np.array([[0.0, 1.0], [1.0, 0.0]])
    target = tmp_path / "thin.json"
    save_matrix_file(target, thin, "density")
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    save_matrix_file(g1, np.diag([1.0, 0.0]).astype(complex), "density")
    save_matrix_file(g2, np.diag([0.0, 1.0]).astype(complex), "density")
    code, _, _ = run(capsys, ["hull", "--state", str(target),
                              "--generators", str(g1), str(g2)])
    assert code == 3


def test_facets(files, capsys):
    code, doc, _ = run_json(capsys, ["facets", "--generators", *files["gens"]])
    assert code == 0
    assert doc["results"]["count"] == 28
    assert doc["config"]["facet_active_tol"] == 1e-7
    assert doc["config"]["facet_match_tol"] == 1e-7
    assert doc["config"]["facet_rank_abs_cutoff"] == 1e-12
    assert doc["config"]["facet_rank_rel_cutoff"] == 1e-9
    assert doc["config"]["max_facet_subsets"] == 200_000
    assert doc["config"]["max_facet_side_entries"] == 1 << 24


def test_roof_support_reports_strict_bound(files, capsys):
    code, out, _ = run(capsys, ["roof-support", "--state", files["rho05"],
                                "--basis", files["basis"],
                                "--restarts", "3", "--steps", "200"])
    assert code == 0
    assert "> 4" in out
    assert "certified strict" in out


def test_roof_nonpos_with_supplied_generators(files, capsys, tmp_path):
    pure_paths = []
    for k, s in enumerate(SPIN1.positive_states):
        p = tmp_path / f"pos{k}.json"
        save_matrix_file(p, s, "pure_state")
        pure_paths.append(str(p))
    argv = ["roof-nonpos", "--state", files["rho05"], "--basis", files["basis"],
            "--restarts", "3", "--steps", "200"]
    for p in pure_paths:
        argv += ["--positive-pure", p]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["results"]["lower_strict"] is True
    assert doc["results"]["upper_bound"] > 1.0 + 1e-4
    assert doc["results"]["generator_provenance"] == "supplied"


def test_roof_nonpos_refuses_a_supplied_state_that_is_not_kd_positive(files, capsys, tmp_path):
    u = SPIN1.transition
    bad = next(s for s in SPIN1.min_uncertainty_states if not is_kd_positive(kd_table(s, u)))
    argv = ["roof-nonpos", "--state", files["mixed"], "--basis", files["basis"]]
    for k, s in enumerate([*SPIN1.positive_states, bad]):
        p = tmp_path / f"pos{k}.json"
        save_matrix_file(p, s, "pure_state")
        argv += ["--positive-pure", str(p)]
    code, doc, _ = run_json(capsys, argv)
    assert code == 2
    assert doc["error"] == {"category": "validation", "type": "ValidationError",
                            "message": "positive_pure state 9 is not KD positive"}


@pytest.mark.parametrize("command", ["roof-support", "roof-nonpos"])
def test_roof_refuses_a_hermitian_file_that_is_not_a_state(files, capsys, tmp_path, command):
    for k, (matrix, message) in enumerate([(rho_lambda(0.8), "negative eigenvalue"),
                                           (2.0 * rho_lambda(0.3), "trace"),
                                           (rho_lambda(4.0 / 7.0 + 1e-9), "RANK_CUTOFF")]):
        path = tmp_path / f"h{k}.json"
        save_matrix_file(path, matrix, "hermitian")
        code, doc, _ = run_json(capsys, [command, "--state", str(path), "--basis", files["basis"]])
        assert code == 2
        assert doc["error"]["category"] == "validation"
        assert doc["error"]["type"] == "ValidationError"
        assert message in doc["error"]["message"]


@pytest.mark.parametrize("command", ["roof-support", "roof-nonpos"])
def test_roof_takes_a_density_file_whose_trace_is_off_within_tolerance(files, capsys, tmp_path,
                                                                       command):
    # rho_lambda(0.5) is outside the hull of the KD-positive states; the mixture is inside.
    w = np.random.default_rng(7).dirichlet(np.ones(9))
    inside = sum(wi * projector(s) for wi, s in zip(w, SPIN1.positive_states))
    for k, (rho, strict) in enumerate([(rho_lambda(0.5), True), (inside, False)]):
        path, exact_path = tmp_path / f"off{k}.json", tmp_path / f"exact{k}.json"
        save_matrix_file(path, rho * (1.0 + 5e-10), "density")
        save_matrix_file(exact_path, rho, "density")
        assert load_matrix_file(str(path))[0] == "density"
        code, doc, _ = run_json(capsys, [command, "--state", str(path), "--basis", files["basis"]])
        _, exact, _ = run_json(capsys, [command, "--state", str(exact_path),
                                        "--basis", files["basis"]])
        assert code == 0
        assert doc["results"]["lower_strict"] is strict
        assert doc["results"]["upper_bound"] == pytest.approx(exact["results"]["upper_bound"],
                                                             rel=1e-8)
        weights = doc["results"]["decomposition"]["weights"]
        assert abs(sum(weights) - (1.0 + 5e-10)) <= config.WEIGHT_SUM_TOL


def test_roof_ignores_the_anneal_flags(files, capsys, tmp_path):
    # --seed, --restarts and --steps are parsed and echoed, never validated or used,
    # also on the DFT 4 pair, which has no hull route.
    save_matrix_file(tmp_path / "dft4.json", dft_matrix(4), "unitary")
    save_matrix_file(tmp_path / "mixed4.json", np.diag([0.4, 0.3, 0.2, 0.1]), "density")
    inputs = [("roof-support", files["rho05"], files["basis"]),
              ("roof-nonpos", files["rho05"], files["basis"]),
              ("roof-nonpos", str(tmp_path / "mixed4.json"), str(tmp_path / "dft4.json"))]
    for command, state, basis in inputs:
        argv = [command, "--state", state, "--basis", basis]
        code, plain, _ = run_json(capsys, argv)
        flagged_code, flagged, _ = run_json(
            capsys, argv + ["--seed", "3", "--restarts", "0", "--steps", "-1"])
        assert code == flagged_code == 0
        assert (flagged["config"]["seed"], flagged["config"]["restarts"],
                flagged["config"]["steps"]) == (3, 0, -1)
        assert flagged["results"] == plain["results"]


def test_spin1_passes_and_mentions_facets(capsys):
    code, out, _ = run(capsys, ["spin1"])
    assert code == 0
    assert "28" in out
    assert "[PASS] facet_count" in out
    assert "FAIL" not in out


def test_haar_study(files, capsys):
    code, doc, _ = run_json(capsys, ["haar-study", "--dim", "3",
                                     "--samples", "25", "--seed", "7"])
    assert code == 0
    assert doc["results"]["fraction_completely_incompatible"] == 1.0


def test_json_reports_are_deterministic(files, capsys):
    argv = ["roof-nonpos", "--state", files["rho05"], "--basis", files["basis"],
            "--seed", "11", "--restarts", "2", "--steps", "150", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing_seconds")
    doc2.pop("timing_seconds")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert doc1["config"]["roof_recheck_tol"] == 1e-9
    assert doc1["config"]["nonpositivity_strict_slack"] == 2e-9


@pytest.mark.parametrize("command", ["hull", "roof-support", "roof-nonpos"])
def test_simplex_tolerances_are_echoed(files, capsys, command):
    inputs = ["--generators", *files["gens"]] if command == "hull" else ["--basis", files["basis"]]
    extra = [] if command == "hull" else _ANNEAL
    code, doc, _ = run_json(capsys, [command, "--state", files["mixed"], *inputs, *extra])
    assert code == 0
    assert doc["config"]["pivot_tol"] == 1e-10
    assert doc["config"]["bland_tie_tol"] == 1e-14
    assert doc["config"]["farkas_slack_tol"] == 1e-6
    assert doc["config"]["lp_primal_tol"] == 1e-9
    assert doc["config"]["lp_dual_tol"] == 1e-7


def _key_paths(value, path=""):
    """Every key of nested dicts as a dotted path; list items add ``[]``."""
    if isinstance(value, dict):
        return set().union(*({path + k} | _key_paths(v, f"{path}{k}.") for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*(_key_paths(v, path[:-1] + "[]." if path else "") for v in value))
    return set()


_MEMBERSHIP_KEYS = {"membership"} | {
    f"membership.{k}" for k in
    ("functional", "margin", "normalization", "threshold", "tolerance", "verdict", "weights")
}
_ROOF_KEYS = {
    "base_value", "decomposition", "decomposition.states", "decomposition.weights",
    "dual_bound", "dual_witness", "exact", "generator_provenance", "lower_bound",
    "lower_certificate", "lower_strict", "objective", "upper_bound",
}
_ANNEAL = ["--restarts", "2", "--steps", "100"]
# Per command: argv, with fixture names for files, and the expected key paths
# of the report's results and certificates.
_REPORT_KEYS = [
    (["table", "--state", "rho05", "--basis", "basis"], {
        "a_marginals", "b_marginals", "dim", "kd_positive", "kd_positive.tolerance",
        "kd_positive.value", "kd_table", "min_overlap", "total", "total_nonpositivity",
        "worst_entry", "worst_entry.col", "worst_entry.offence", "worst_entry.row",
        "worst_entry.value"}, set()),
    (["support", "--state", "psi1", "--basis", "basis"], {
        "eps", "largest_discarded", "n_a", "n_ab", "n_b", "smallest_kept", "state_kind"}, set()),
    (["incompat", "--basis", "basis"], {
        "argmin", "argmin.cols", "argmin.order", "argmin.rows", "completely_incompatible",
        "eps", "min_abs_minor", "minors_checked"}, set()),
    (["enumerate", "--basis", "basis"], {
        "count", "degenerate_patterns", "kd_positive_count", "kd_positive_indices", "patterns",
        "patterns[].a_support", "patterns[].b_support", "states"}, set()),
    (["hull", "--state", "rho05", "--generators", "gens"], {"verdict"}, _MEMBERSHIP_KEYS),
    (["facets", "--generators", "gens"], {
        "count", "facets", "facets[].active", "facets[].functional", "facets[].offset"}, set()),
    (["roof-support", "--state", "rho05", "--basis", "basis", *_ANNEAL],
     _ROOF_KEYS, _MEMBERSHIP_KEYS),
    (["roof-nonpos", "--state", "rho05", "--basis", "basis", *_ANNEAL],
     _ROOF_KEYS, _MEMBERSHIP_KEYS),
    (["spin1"], {
        "checks", "checks[].claim", "checks[].computed", "checks[].computed.kd_positive",
        "checks[].computed.margin", "checks[].computed.nonpositivity_roof_upper",
        "checks[].computed.support_roof_dual", "checks[].computed.support_roof_strict_above",
        "checks[].computed.total_nonpositivity",
        "checks[].expected", "checks[].name", "checks[].passed", "checks[].tolerance",
        "facet_count", "passed", "witness_expectations"}, set()),
    (["haar-study", "--dim", "3", "--samples", "5", "--seed", "7"], {
        "dim", "fraction_completely_incompatible", "min_minor_quantiles",
        "min_minor_quantiles.max", "min_minor_quantiles.median", "min_minor_quantiles.min",
        "min_minor_quantiles.q25", "min_minor_quantiles.q75", "samples", "seed"}, set()),
]

# Per command: config keys it must echo, the tolerances that decide its results.
_DECIDING_CONFIG = {
    "enumerate": {"null_space_abs_cutoff", "null_space_rel_cutoff", "null_ray_tol"},
    "facets": {"facet_active_tol", "facet_match_tol", "facet_rank_abs_cutoff",
               "facet_rank_rel_cutoff"},
}


def _resolved(files, argv):
    """``argv`` with each fixture name replaced by its file or files."""
    resolved = []
    for arg in argv:
        value = files.get(arg, arg)
        resolved += value if isinstance(value, list) else [value]
    return resolved


# Per case: argv with fixture names for files.
_BAD_TOLERANCES = [
    ["support", "--state", "psi1", "--basis", "basis", "--eps", "nan"],
    ["support", "--state", "mixed", "--basis", "basis", "--eps", "inf"],
    ["hull", "--state", "mixed", "--generators", "gens", "--tol", "nan"],
    ["hull", "--state", "mixed", "--generators", "gens", "--tol", "-1"],
    ["incompat", "--basis", "basis", "--eps", "inf"],
]


@pytest.mark.parametrize("argv", _BAD_TOLERANCES, ids=[
    "support-eps-nan", "support-mixed-eps-inf", "hull-tol-nan", "hull-tol-negative",
    "incompat-eps-inf"])
def test_non_finite_or_negative_tolerances_are_validation_errors(files, capsys, argv):
    code, doc, _ = run_json(capsys, _resolved(files, argv))
    assert code == 2
    assert doc["error"]["category"] == "validation"
    assert doc["error"]["type"] == "ValidationError"
    assert "finite" in doc["error"]["message"]


def test_haar_study_rejects_a_negative_seed(capsys):
    code, doc, _ = run_json(capsys, ["haar-study", "--dim", "3", "--samples", "5",
                                     "--seed", "-5"])
    assert code == 2
    assert doc["error"] == {"category": "validation", "type": "ValidationError",
                            "message": "seed must be nonnegative, got -5"}


def test_enumerate_and_roof_support_at_d7(capsys, tmp_path):
    # The minor count is enumeration's only size guard: d = 7 and 8 run, d = 9 does not.
    basis, state = str(tmp_path / "u7.json"), str(tmp_path / "rho7.json")
    save_matrix_file(basis, haar_unitary(7, 1007), "unitary")
    rng = np.random.default_rng(7)
    g = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    save_matrix_file(state, g @ g.conj().T / np.vdot(g, g).real, "density")
    code, doc, _ = run_json(capsys, ["enumerate", "--basis", basis])
    assert code == 0
    assert doc["results"]["count"] == 3003
    code, doc, _ = run_json(capsys, ["roof-support", "--state", state, "--basis", basis])
    assert code == 0
    assert doc["certificates"]["membership"]["verdict"] == "outside"
    assert doc["results"]["lower_strict"] is True
    assert doc["results"]["lower_bound"] == 8.0 < doc["results"]["upper_bound"]
    save_matrix_file(tmp_path / "u9.json", haar_unitary(9, 9), "unitary")
    code, doc, _ = run_json(capsys, ["enumerate", "--basis", str(tmp_path / "u9.json")])
    assert code == 2
    assert doc["error"]["type"] == "DimensionTooLarge"
    assert "48619 minors" in doc["error"]["message"]


@pytest.mark.parametrize("argv, results, certificates", _REPORT_KEYS,
                         ids=[argv[0] for argv, _, _ in _REPORT_KEYS])
def test_report_keys(files, capsys, argv, results, certificates):
    # Reports serialise result types, so a renamed field would rename a key.
    code, doc, _ = run_json(capsys, _resolved(files, argv))
    assert code == 0
    assert _key_paths(doc["results"]) == results
    assert _key_paths(doc["certificates"]) == certificates
    assert _DECIDING_CONFIG.get(argv[0], set()) <= doc["config"].keys()


def _indented_dumps(report):
    """The report over many lines: keys sorted, indented by two, the same document."""
    return json.dumps(io_json.to_jsonable(report), sort_keys=True, indent=2) + "\n"


def _negative_zeros(text):
    """The numbers written in the JSON ``text`` that read as zero with a minus sign."""
    found = []

    def number(token):
        if token.startswith("-") and float(token) == 0.0:
            found.append(token)
        return float(token)

    json.loads(text, parse_float=number, parse_int=number)
    return found


_ONE_LINE_ARGVS = [argv for argv, _, _ in _REPORT_KEYS] + [
    ["haar-study", "--dim", "3", "--samples", "5", "--seed", "-5"]]


@pytest.mark.parametrize("argv", _ONE_LINE_ARGVS,
                         ids=[argv[0] for argv, _, _ in _REPORT_KEYS] + ["error"])
def test_reports_are_one_line_of_the_indented_document(files, capsys, monkeypatch, argv):
    argv = _resolved(files, argv) + ["--json"]
    code, out, _ = run(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "dumps_report", _indented_dumps)
        indented_code, indented, _ = run(capsys, argv)
    assert code == indented_code
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert indented.count("\n") > 1
    docs = [json.loads(text) for text in (out, indented)]
    for doc in docs:
        doc.pop("timing_seconds", None)
    assert docs[0] == docs[1]
    assert ("error" in docs[0]) == (code != 0)
    assert _negative_zeros(out) == []


def test_golden_table_report(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code, doc, _ = run_json(capsys, ["table", "--state", "state.json",
                                     "--basis", "basis.json"])
    assert code == 0
    doc.pop("timing_seconds")
    golden = json.loads((DATA / "golden_table.json").read_text())
    assert json.dumps(doc, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_the_environment_does_not_set_the_base_tolerance(files, capsys, monkeypatch, tmp_path):
    # KD_DEFAULT_TOL named a removed override of BASE_TOL; setting it changes nothing.
    monkeypatch.setenv("KD_DEFAULT_TOL", "1e-6")
    code, doc, _ = run_json(capsys, ["table", "--state", files["rho05"],
                                     "--basis", files["basis"]])
    assert code == 0
    assert doc["config"]["default_tol"] == doc["results"]["kd_positive"]["tolerance"] == 1e-9
    # A density file whose trace is 1 + 1e-7, off by more than BASE_TOL.
    off = tmp_path / "off.json"
    diagonal = [0.5 + 1e-7, 0.25, 0.25]
    entries = [[[diagonal[i] if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
    off.write_text(json.dumps({"dim": 3, "kind": "density", "entries": entries}))
    code, doc, _ = run_json(capsys, ["table", "--state", str(off), "--basis", files["basis"]])
    assert code == 2
    assert doc["error"]["category"] == "validation"
    assert "trace" in doc["error"]["message"]


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_reused_parser_forgets_supplied_generators(files, capsys, monkeypatch, tmp_path):
    supplied = []
    for k, s in enumerate(SPIN1.positive_states):
        p = tmp_path / f"pos{k}.json"
        save_matrix_file(p, s, "pure_state")
        supplied += ["--positive-pure", str(p)]
    argv = ["roof-nonpos", "--state", files["rho05"], "--basis", files["basis"], *_ANNEAL]
    code, doc, _ = run_json(capsys, argv + supplied)
    assert code == 0
    assert doc["results"]["generator_provenance"] == "supplied"
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["results"]["generator_provenance"] == "derived"
    assert run_report(capsys, argv) == fresh_parser_report(capsys, monkeypatch, argv)


def test_a_reused_parser_forgets_an_earlier_eps(files, capsys, monkeypatch):
    argv = ["support", "--state", files["mixed"], "--basis", files["basis"]]
    code, doc, _ = run_json(capsys, argv + ["--eps", "1e-7"])
    assert code == 0
    assert doc["config"]["eps"] == doc["results"]["eps"] == 1e-7
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["config"]["eps"] is None
    assert doc["results"]["eps"] == config.BASE_TOL
    assert run_report(capsys, argv) == fresh_parser_report(capsys, monkeypatch, argv)


def test_json_error_reporting(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["table", "--state", str(bad),
                                  "--basis", files["basis"], "--json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["category"] == "validation"


@pytest.mark.parametrize("path, content, message", [
    ("nope.json", None, "cannot read file"),
    (".", None, "cannot read file"),
    ("latin1.json", b"\xff{}", "invalid JSON"),
    ("long.json", b"[" + b"1" * 5000 + b"]", "invalid JSON"),
], ids=["missing", "directory", "not_utf8", "int_too_long"])
def test_unreadable_input_is_a_matrix_file_error(
    files, capsys, monkeypatch, tmp_path, path, content, message
):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / path).write_bytes(content)
    code, doc, _ = run_json(capsys, ["table", "--state", path, "--basis", files["basis"]])
    assert code == 2
    assert doc["error"]["category"] == "validation"
    assert doc["error"]["type"] == "MatrixFileError"
    assert doc["error"]["message"].startswith(f"{path}: {message}")


@pytest.mark.parametrize("command", ["table", "hull", "roof-nonpos"])
def test_each_input_file_is_opened_once(files, capsys, monkeypatch, command):
    argv = {
        "table": ["table", "--state", files["rho05"], "--basis", files["basis"]],
        "hull": ["hull", "--state", files["mixed"], "--generators", *files["gens"]],
        "roof-nonpos": ["roof-nonpos", "--state", files["rho05"], "--basis", files["basis"],
                        "--positive-pure", files["pos0"], "--positive-pure", files["pos0"]],
    }[command]
    inputs = set(argv[1:]) - {"--state", "--basis", "--generators", "--positive-pure"}
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert sorted(path for path in opened if path in inputs) == sorted(inputs)
    assert sorted(doc["inputs"]) == sorted(inputs)


def test_input_faults_are_validation_errors(files, capsys, tmp_path):
    # A basis pair that is not completely incompatible, and a hull of one point.
    dft = tmp_path / "dft6.json"
    save_matrix_file(dft, dft_matrix(6), "unitary")
    code, doc, _ = run_json(capsys, ["enumerate", "--basis", str(dft)])
    assert code == 2
    assert doc["error"]["category"] == "validation"
    assert doc["error"]["type"] == "NotCompletelyIncompatible"
    code, doc, _ = run_json(capsys, ["facets", "--generators", files["gens"][0],
                                     files["gens"][0]])
    assert code == 2
    assert doc["error"] == {"category": "validation", "type": "DegenerateHull",
                            "message": "generators span no affine directions"}


def test_facets_after_spin1_in_one_session_walk_nothing(capsys, tmp_path, monkeypatch):
    # spin1 embeds its generators to the same points as facets over the
    # minimal-state files, so one cached facet list serves both commands.
    gens = [str(tmp_path / f"g{k:02d}.json") for k in range(15)]
    for path, psi in zip(gens, SPIN1.min_uncertainty_states):
        save_matrix_file(path, psi, "pure_state")
    argv = ["facets", "--generators", *gens]
    cold = run_report(capsys, argv)
    basis.clear_cache()
    walks = []
    wrap = geometry._wrap
    monkeypatch.setattr(geometry, "_wrap", lambda hull_pts: walks.append(1) or wrap(hull_pts))
    assert run(capsys, ["spin1"])[0] == 0
    assert len(walks) == 1
    assert run_report(capsys, argv) == cold
    assert len(walks) == 1


@pytest.mark.parametrize("error, code, category", [
    (OutsideHull("target is outside the convex hull of the generators"), 2, "validation"),
    (CertificateError("outside certificate has margin 0 <= 0"), 4, "internal"),
])
def test_error_categories(files, capsys, monkeypatch, error, code, category):
    def raise_error(generators):
        raise error

    monkeypatch.setattr(cli, "facet_enumeration", raise_error)
    got, doc, err = run_json(capsys, ["facets", "--generators", *files["gens"]])
    assert got == code
    assert doc["error"]["category"] == category
    assert doc["error"]["type"] == type(error).__name__
    assert err.startswith(f"{category} error:")


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "u.json"
    save_matrix_file(path, SPIN1.transition, "unitary")
    kind, arr = load_matrix_file(str(path))
    assert kind == "unitary"
    assert np.allclose(arr, SPIN1.transition)
