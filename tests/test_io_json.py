import dataclasses
import json
import re

import numpy as np
import pytest

from kdwitness import MatrixFileError, io_json
from kdwitness.io_json import dumps_report, load_matrix_file


# -- reference: the element-by-element encoder ---------------------------------


def _reference_f(x):
    return float(x) + 0.0


def _reference_to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _reference_f(obj)
    if isinstance(obj, complex):
        return [_reference_f(obj.real), _reference_f(obj.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _reference_f(float(obj))
    if isinstance(obj, np.complexfloating):
        return [_reference_f(float(obj.real)), _reference_f(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return [_reference_to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _reference_to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _reference_dumps(report):
    return json.dumps(_reference_to_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"


@dataclasses.dataclass(frozen=True)
class _Inner:
    matrix: np.ndarray
    label: str


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    weights: np.ndarray
    pair: tuple


def test_array_encoding_matches_the_element_reference():
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    matrix[0, 1] = complex(-0.0, -0.0)
    matrix[2, 2] = complex(0.0, -0.0)
    reports = [
        {"zeros": np.array([-0.0, 0.0, -0.0]), "scalar": -0.0, "cscalar": complex(-0.0, 1.0)},
        {"complex": matrix, "stack": np.stack([matrix, matrix.conj()]),
         "complex64": matrix.astype(np.complex64)},
        {"nested": _Outer(_Inner(matrix, "m"), rng.dirichlet(np.ones(4)), (1, -0.0, "x")),
         "list": [_Inner(np.eye(2) * -0.0, "z")]},
        {"numpy_scalars": [np.float64(-0.0), np.int64(7), np.complex128(-0.0 - 2.5j),
                           np.float32(0.1)],
         "ints": np.arange(-3, 3), "bools": np.array([True, False]),
         "float32": np.array([[-0.0, 1.5e-7]], dtype=np.float32),
         "tuple": (np.array([1.0, -0.0]), None), "empty": np.zeros((0, 3))},
    ]
    for report in reports:
        assert dumps_report(report) == _reference_dumps(report)


@pytest.mark.parametrize("doc, where", [
    ({"dim": True, "kind": "pure_state", "entries": [[1.0, 0.0]]}, "'dim'"),
    ({"dim": 1, "kind": "pure_state", "entries": [[True, False]]}, "entry 0"),
    ({"dim": 1, "kind": "pure_state", "entries": [[1.0, False]]}, "entry 0"),
    ({"dim": 1, "kind": "unitary", "entries": [[[True, 0.0]]]}, "entry (0,0)"),
    ({"dim": 1, "kind": "pure_state", "entries": [[10**400, 0.0]]}, "entry 0"),
], ids=["dim", "entry", "imaginary_part", "matrix_entry", "int_beyond_float"])
def test_entries_that_are_not_floats_are_located(tmp_path, doc, where):
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError, match=re.escape(where)):
        load_matrix_file(str(path))


# -- the parse-and-validate cache --------------------------------------------


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _density_doc(trace: float) -> dict:
    entries = [[[trace / 2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [trace / 2, 0.0]]]
    return {"dim": 2, "kind": "density", "entries": entries}


def _misses() -> int:
    return io_json._parse.cache_info().misses


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = _write(tmp_path / "state.json", _density_doc(1.0))
    _, first = load_matrix_file(path)
    misses = _misses()
    _, again = load_matrix_file(path)
    assert again is first and _misses() == misses
    _write(tmp_path / "state.json", {"dim": 1, "kind": "pure_state", "entries": [[0.0, 1.0]]})
    kind, other = load_matrix_file(path)
    assert _misses() == misses + 1
    assert kind == "pure_state" and other.tolist() == [1j]


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"dim": 2, "kind": "density", "entries": [[[1.0, 0.0]], [[0.0, 0.0]]]}),
    json.dumps(_density_doc(2.0)),
], ids=["json", "row", "validation"])
def test_a_bad_file_raises_its_located_error_on_every_call(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    messages = []
    for _ in range(2):
        with pytest.raises(MatrixFileError) as caught:
            load_matrix_file(str(path))
        assert caught.value.path == str(path)
        assert str(caught.value).startswith(f"{path}: ")
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_equal_files_share_one_read_only_entry(tmp_path):
    doc = _density_doc(1.0)
    first, second = _write(tmp_path / "a.json", doc), _write(tmp_path / "b.json", doc)
    _, array = load_matrix_file(first)
    misses = _misses()
    _, same = load_matrix_file(second)
    assert same is array and _misses() == misses
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 0.0
    # The expected kind is checked against each call's own path.
    with pytest.raises(MatrixFileError, match="expected kind 'unitary'") as caught:
        load_matrix_file(second, expect_kind="unitary")
    assert caught.value.path == second


def test_an_unexpected_kind_is_reported_before_a_fault_in_the_entries(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"dim": 2, "kind": "density", "entries": [[[1.0, 0.0]], [[0.0, 0.0]]]})
    with pytest.raises(MatrixFileError, match="expected kind 'unitary', file says 'density'"):
        load_matrix_file(path, expect_kind="unitary")
    with pytest.raises(MatrixFileError, match="row 0 needs 2 entries"):
        load_matrix_file(path, expect_kind="density")
