"""The names that other code reaches into lkpolar by: the public API and the
functions that the benchmark's tracer wraps.  A rename or a move that breaks
``perfbench/run.py --trace 1`` fails here first.  Also: no module keeps state
of its own that could grow."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import lkpolar
from lkpolar import cli, germ, lkmeasure, polar
from lkpolar.plstrata import StratifiedComplex

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_every_exported_name_exists():
    # a deleted function must not stay in the __all__ of its module
    missing = []
    for info in pkgutil.iter_modules(lkpolar.__path__):
        module = importlib.import_module(f"lkpolar.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


# every call into lkpolar that perfbench/workloads.py makes, with arguments of
# the same shape: (function, positional arguments, keyword arguments)
BENCHMARK_CALLS = {
    "polar_length": (polar.polar_length, ("X", 1, 10, "rng"), {}),
    # the verify rows pass n_dirs; PL and smooth routes both ignore it
    "lk_measure": (lkmeasure.lk_measure, ("X", 1, "rng"), {"n_dirs": 4000}),
    "exchange_lambda0": (lkmeasure.exchange_lambda0, ("X", 40, "rng"), {}),
    "verify_local_identities": (germ.verify_local_identities, ("X", "rng"),
                                {"n_samples": 1300, "n_planes": 1300}),
    "combined_pass": (cli.combined_pass, (1.0, 0.1, 1.0, 0.1, 3.0), {}),
    "shape_from_name": (lkmeasure.shape_from_name, ("cube",), {}),
    "germ_from_name": (germ.germ_from_name, ("rays:3",), {}),
    "Shape": (lkmeasure.Shape, (), {"name": "grid", "pl": "K"}),
    "from_maximal_cells": (StratifiedComplex.from_maximal_cells, ("verts", "tets"), {}),
}


@pytest.mark.parametrize("name", list(BENCHMARK_CALLS))
def test_benchmark_call_sites_bind(name):
    fn, args, kwargs = BENCHMARK_CALLS[name]
    inspect.signature(fn).bind(*args, **kwargs)


def test_no_module_level_containers():
    # a dict, list or set held by a module outlives every shape and every
    # call, so a cache there grows without bound; tables built from a shape
    # belong on the shape (as ``K.plan`` holds them)
    found = []
    for info in pkgutil.iter_modules(lkpolar.__path__):
        module = importlib.import_module(f"lkpolar.{info.name}")
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if isinstance(value, (dict, list, set))
                  and not (name.startswith("__") and name.endswith("__")) and not name.isupper()]
    assert not found


def test_benchmark_reads_still_exist():
    # perfbench reads these attributes as well as calling the functions
    # above: the closed-form references of the verify rows, and the germ
    # table's verdicts as bools (a method there would be truthy and pass
    # every row)
    assert isinstance(cli.REFERENCES, dict)
    assert set(cli.REFERENCES) == {"cube", "sphere:1", "torus:2:1", "disk:1", "hemisphere:1",
                                   "ball:1", "circle:1"}
    est = lkpolar.Estimate(1.0, 0.1, 10, 0)
    row = germ.LocalIdentityRow(k=0, sigma_diff=est, polar=est, curvature=est)
    report = germ.LocalIdentityReport(rows=(row,), sigma_top=est, density_top=5.0,
                                      refined_lhs=est, refined_rhs=est)
    for owner, verdict, expected in ((germ.LocalIdentityRow, row.passes, True),
                                     (germ.LocalIdentityReport, report.passes, False)):
        assert isinstance(owner.__dict__["passes"], property)
        assert verdict is expected


def _names_used(tree) -> set:
    """The names a module's code reads: identifiers, attributes and string
    constants (a getattr by name, a tracer's table), outside ``__all__``;
    an import alone does not count."""
    exported = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _defined_functions() -> dict:
    """Each function defined in src/lkpolar, dunders aside: name -> where."""
    defined = {}
    for path in sorted((ROOT / "src" / "lkpolar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined


def _used_in(*tops) -> set:
    used = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text()))
    return used


def test_every_function_has_a_caller():
    # a function of lkpolar that no code in src, tests or perfbench names,
    # other than its own def and an __all__, is dead: a view left behind
    # when its callers moved to a stacked kernel fails here at once
    defined = _defined_functions()
    used = _used_in("src", "tests", "perfbench")
    assert len(defined) > 100
    assert not {name: where for name, where in defined.items() if name not in used}


# the functions of src/lkpolar that only tests name: public API that no
# module or benchmark calls, and the one-item views that tests read; a
# helper that loses its last caller in src or perfbench joins this set and
# fails the test below, rather than living on through its tests
TEST_ONLY_FUNCTIONS = {
    "beta_coeff", "sample_affine_flats_hitting_ball", "generate_state", "from_vectors",
    "lambda_density", "slice_euler_characteristic", "with_region", "euler_characteristic",
    "polar_image_integral", "frames", "second_form", "morse_index",
}


def test_functions_named_only_by_tests_are_pinned():
    defined = _defined_functions()
    used = _used_in("src", "perfbench")
    tested = _used_in("tests")
    assert {name for name in defined if name not in used and name in tested} == TEST_ONLY_FUNCTIONS
