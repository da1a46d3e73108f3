"""The benchmark's tracer wraps library functions by name; they must all exist.

``perfbench/tracing.py`` lists every traced ``(module, attribute)`` and
``(module, class, method)``.  A rename in the library would make the
traced run and the benchmark's self-test fail, so the names are checked
here, importing the tracer without writing anything beside it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_functions_resolve(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced functions not found: {missing}"


def test_traced_methods_resolve(tracing):
    missing = []
    for module, cls_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        # the tracer patches the method on the class that defines it
        if cls is None or not callable(vars(cls).get(method)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert not missing, f"traced methods not found: {missing}"
