import json
import pathlib

import numpy as np
import pytest

from kdwitness import SPIN1, is_kd_positive, kd_table, rho_lambda
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
        "mixed": root / "mixed.json",
        "basis2": root / "basis2.json",
        "state2": root / "state2.json",
    }
    save_matrix_file(paths["basis"], SPIN1.transition, "unitary")
    save_matrix_file(paths["rho05"], rho_lambda(0.5), "density")
    save_matrix_file(paths["psi1"], SPIN1.min_uncertainty_states[9], "pure_state")
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


def test_usage_error(files, capsys):
    code, _, err = run(capsys, ["table", "--state", files["rho05"]])
    assert code == 1
    assert "usage error" in err
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


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


def test_golden_table_report(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code, doc, _ = run_json(capsys, ["table", "--state", "state.json",
                                     "--basis", "basis.json"])
    assert code == 0
    doc.pop("timing_seconds")
    golden = json.loads((DATA / "golden_table.json").read_text())
    assert json.dumps(doc, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_default_tol_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("KD_DEFAULT_TOL", "1e-7")
    code, doc, _ = run_json(capsys, ["table", "--state", files["rho05"],
                                     "--basis", files["basis"]])
    assert code == 0
    assert doc["config"]["default_tol"] == 1e-7
    assert doc["results"]["kd_positive"]["tolerance"] == 1e-7


def test_json_error_reporting(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["table", "--state", str(bad),
                                  "--basis", files["basis"], "--json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["category"] == "validation"


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "u.json"
    save_matrix_file(path, SPIN1.transition, "unitary")
    kind, arr = load_matrix_file(str(path))
    assert kind == "unitary"
    assert np.allclose(arr, SPIN1.transition)
