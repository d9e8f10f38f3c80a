"""JSON matrix files and deterministic report serialization.

A matrix file is a JSON document ``{"dim": d, "entries": ...,
"kind": ...}`` where entries are ``[re, im]`` pairs, row-major for square
kinds and a flat list for pure states. Files are validated on load
according to their declared kind and rejected with a located message.

A file is read on every load (the command line digests those bytes for a
report's ``inputs``), but its parse and validation run once per process for
each distinct content. The last ``config.MATRIX_FILE_CACHE_SIZE`` results
are kept, and their arrays are read-only. The expected kind is checked on
every load, and a fault is never kept: a bad file raises its located
:class:`MatrixFileError` every time it is loaded.

Reports serialize as one line of compact JSON with sorted keys and canonical
floats (no -0.0), so that identical commands with identical seeds produce
byte-identical output (timing excluded); ``python -m json.tool`` indents one
for reading.
"""

import dataclasses
import io
import json
from functools import lru_cache

import numpy as np

from . import config
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


class _FileFault(Exception):
    """A fault in a file's content, before :func:`load_matrix_file` adds the path.

    ``kind`` is the file's kind when the fault lies past it, so that an
    unexpected kind is still reported first.
    """

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind


def _entry_to_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise _FileFault(f"{where}: expected an [re, im] pair, got {entry!r}")
    try:
        return complex(entry[0], entry[1])
    except OverflowError as exc:
        raise _FileFault(f"{where}: {exc}") from exc


def read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise MatrixFileError(path, f"cannot read file: {exc}") from exc


def load_matrix_file(path: str, expect_kind: str | None = None,
                     data: bytes | None = None) -> tuple[str, np.ndarray]:
    """Load and validate a matrix file, or its bytes ``data`` read before, as ``(kind, array)``.

    The parse and the validation run once per content, and the array is
    read-only (see the module docstring). ``expect_kind`` is checked on
    every call, and every fault raises a :class:`MatrixFileError` located at
    ``path``.
    """
    data = read_file(path) if data is None else data
    try:
        kind, array = _parse(data)
    except _FileFault as fault:
        _check_kind(path, fault.kind, expect_kind)
        raise MatrixFileError(path, str(fault)) from fault.__cause__
    _check_kind(path, kind, expect_kind)
    return kind, array


def _check_kind(path: str, kind: str | None, expect_kind: str | None) -> None:
    if None not in (kind, expect_kind) and kind != expect_kind:
        raise MatrixFileError(path, f"expected kind {expect_kind!r}, file says {kind!r}")


@lru_cache(maxsize=config.MATRIX_FILE_CACHE_SIZE)
def _parse(data: bytes) -> tuple[str, np.ndarray]:
    """The kind and validated array of a file's bytes."""
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
            doc = json.load(text)
    except ValueError as exc:
        # Malformed JSON, text that is not UTF-8, or an integer too long to parse.
        raise _FileFault(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _FileFault("top level must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _FileFault(f"'dim' must be a positive integer, got {dim!r}")
    entries = doc.get("entries")
    if entries is None:
        raise _FileFault("missing 'entries'")
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
        raise _FileFault(f"unknown kind {kind!r}, expected one of {KINDS}")

    try:
        array = _entries_array(kind, dim, entries)
    except _FileFault as fault:
        fault.kind = kind
        raise
    try:
        array = _VALIDATORS[kind](array)
    except Exception as exc:
        raise _FileFault(f"validation as {kind!r} failed: {exc}", kind) from exc
    array.flags.writeable = False
    return kind, array


def _entries_array(kind: str, dim: int, entries) -> np.ndarray:
    if kind == "pure_state":
        if not isinstance(entries, list) or len(entries) != dim:
            raise _FileFault(f"pure state needs {dim} entries")
        return np.array([_entry_to_complex(e, f"entry {i}") for i, e in enumerate(entries)])
    if not isinstance(entries, list) or len(entries) != dim:
        raise _FileFault(f"matrix needs {dim} rows")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise _FileFault(f"row {i} needs {dim} entries")
        rows.append([_entry_to_complex(e, f"entry ({i},{j})") for j, e in enumerate(row)])
    return np.array(rows)


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
    """``report`` as one line of JSON; without ``indent``, json encodes in C."""
    return json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
