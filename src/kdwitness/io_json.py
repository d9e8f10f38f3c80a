"""JSON matrix files and deterministic report serialization.

A matrix file is a JSON document ``{"dim": d, "entries": ...,
"kind": ...}`` where entries are ``[re, im]`` pairs, row-major for square
kinds and a flat list for pure states. Files are validated on load
according to their declared kind and rejected with a located message.

Reports serialize with sorted keys and canonical floats so that identical
commands with identical seeds produce byte-identical output (timing
excluded).
"""

import dataclasses
import io
import json

import numpy as np

from .errors import MatrixFileError
from .validation import (
    validate_density,
    validate_hermitian,
    validate_pure_state,
    validate_unitary,
)

KINDS = ("unitary", "density", "hermitian", "pure_state")

_VALIDATORS = {
    "unitary": validate_unitary,
    "density": validate_density,
    "hermitian": validate_hermitian,
    "pure_state": validate_pure_state,
}


def _entry_to_complex(entry, path: str, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise MatrixFileError(path, f"{where}: expected an [re, im] pair, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError as exc:
        raise MatrixFileError(path, f"{where}: {exc}") from exc


def read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise MatrixFileError(path, f"cannot read file: {exc}") from exc


def load_matrix_file(path: str, expect_kind: str | None = None,
                     data: bytes | None = None) -> tuple[str, np.ndarray]:
    """Load and validate a matrix file, or its bytes ``data`` read before, as ``(kind, array)``."""
    data = read_file(path) if data is None else data
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
            doc = json.load(text)
    except ValueError as exc:
        # Malformed JSON, text that is not UTF-8, or an integer too long to parse.
        raise MatrixFileError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MatrixFileError(path, "top level must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise MatrixFileError(path, f"'dim' must be a positive integer, got {dim!r}")
    entries = doc.get("entries")
    if entries is None:
        raise MatrixFileError(path, "missing 'entries'")
    kind = doc.get("kind")
    if kind is None:
        # A flat list of [re, im] pairs is a pure state; nested rows are a
        # matrix, defaulting to the weakest square kind.
        is_matrix = (
            isinstance(entries, list)
            and entries
            and isinstance(entries[0], list)
            and entries[0]
            and isinstance(entries[0][0], list)
        )
        kind = "hermitian" if is_matrix else "pure_state"
    if kind not in KINDS:
        raise MatrixFileError(path, f"unknown kind {kind!r}, expected one of {KINDS}")
    if expect_kind is not None and kind != expect_kind:
        raise MatrixFileError(path, f"expected kind {expect_kind!r}, file says {kind!r}")

    if kind == "pure_state":
        if not isinstance(entries, list) or len(entries) != dim:
            raise MatrixFileError(path, f"pure state needs {dim} entries")
        array = np.array(
            [_entry_to_complex(e, path, f"entry {i}") for i, e in enumerate(entries)]
        )
    else:
        if not isinstance(entries, list) or len(entries) != dim:
            raise MatrixFileError(path, f"matrix needs {dim} rows")
        rows = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise MatrixFileError(path, f"row {i} needs {dim} entries")
            rows.append(
                [_entry_to_complex(e, path, f"entry ({i},{j})") for j, e in enumerate(row)]
            )
        array = np.array(rows)
    try:
        array = _VALIDATORS[kind](array)
    except Exception as exc:
        raise MatrixFileError(path, f"validation as {kind!r} failed: {exc}") from exc
    return kind, array


def save_matrix_file(path: str, array, kind: str) -> None:
    if kind not in KINDS:
        raise MatrixFileError(path, f"unknown kind {kind!r}")
    arr = np.asarray(array, dtype=complex)
    _VALIDATORS[kind](arr)
    if kind == "pure_state":
        entries = [[_f(z.real), _f(z.imag)] for z in arr]
        dim = int(arr.shape[0])
    else:
        entries = [[[_f(z.real), _f(z.imag)] for z in row] for row in arr]
        dim = int(arr.shape[0])
    doc = {"dim": dim, "kind": kind, "entries": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _f(x: float) -> float:
    # Normalizes -0.0 to 0.0 so serialized output is canonical.
    return float(x) + 0.0


def to_jsonable(obj):
    """Recursively convert package values into JSON-serializable data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _f(obj)
    if isinstance(obj, complex):
        return [_f(obj.real), _f(obj.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _f(float(obj))
    if isinstance(obj, np.complexfloating):
        return [_f(float(obj.real)), _f(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        # Numeric arrays convert in one step; adding 0.0 turns -0.0 into 0.0
        # as _f does, and a complex entry becomes its [re, im] pair.
        if obj.dtype.kind == "c":
            return (np.stack([obj.real, obj.imag], -1) + 0.0).tolist()
        if obj.dtype.kind == "f":
            return (obj + 0.0).tolist()
        if obj.dtype.kind in "biu":
            return obj.tolist()
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
