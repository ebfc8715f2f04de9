"""The names that other code reaches into lkpolar by: the public API and the
functions that the benchmark's tracer wraps.  A rename or a move that breaks
``perfbench/run.py --trace 1`` fails here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import lkpolar
from lkpolar import lkmeasure
from lkpolar.plstrata import StratifiedComplex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _tracing()
    for mod_name, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"lkpolar.{mod_name}")
        for fname in funcs:
            assert callable(getattr(module, fname, None)), f"{mod_name}.{fname}"
    owner, _, method = tracing.LINK_CELLS.partition(".")
    assert owner == "plstrata" and callable(getattr(StratifiedComplex, method, None))


def test_public_names_import():
    missing = [name for name in lkpolar.__all__ if not hasattr(lkpolar, name)]
    assert not missing
    namespace: dict = {}
    exec("from lkpolar import *", namespace)
    assert set(lkpolar.__all__) <= set(namespace)


def test_lk_measure_still_takes_n_dirs():
    # the benchmark's verify rows pass it; PL and smooth routes both ignore it
    assert "n_dirs" in inspect.signature(lkmeasure.lk_measure).parameters
