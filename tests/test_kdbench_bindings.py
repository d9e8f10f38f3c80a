"""Every kdwitness function that kdbench's tracer binds by name still exists.

The tracer replaces ``kdwitness.<module>.<name>`` for each name in its
``SPANNED`` and ``COUNTED`` tables and fails at run time when one is gone.
kdbench's own tests are slow and are not collected here, so this checks the
bindings alone. The tables are read from the tracer's source as literals, so
nothing of kdbench is imported or run.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "kdbench" / "tracer.py"


def _bindings():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [f"{module}.{name}" for table in tables.values()
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("binding", _bindings())
def test_the_tracer_binding_exists(binding):
    module, name = binding.split(".")
    assert callable(getattr(importlib.import_module(f"kdwitness.{module}"), name, None))
