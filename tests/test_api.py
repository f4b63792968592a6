"""The public surface: exported names, where the dense oracles live, and the import path."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclewalk
from cyclewalk.revival import CertificateColumns, RevivalCertificate
from cyclewalk.walk import WalkOperator

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("walk", "spectral", "revival", "solver", "tables", "special", "cli", "exprs")
MOVED_TO_ORACLES = (
    "build_shift_cycle",
    "fourier_matrix",
    "walk_fourier",
    "BlockDiagonalForm",
    "_sorted_block_eig",
    "block_diagonalize",
    "phase_multiset_distance",
    "eigenvalues_closed_form",
    "reduced_fractions",
    "block_formula",
    "eigenvector_matrix",
    "EigenPair",  # the per-pair dense eigenvector; `oracles.eigenvector_matrix` builds them
    "companion_fractions",  # Fraction twins of the solver's integer (num, den) rules
    "constant_block_fractions",
    "certificate_to_json",  # the dict codec, the reference of the `solve` line writer
    "certificate_from_json",
)


def test_package_exports_what_the_cli_readme_and_benchmark_use():
    assert sorted(cyclewalk.__all__) == [
        "CERTIFICATION_TOL",
        "CoinParams",
        "ExpressionError",
        "HADAMARD",
        "RevivalCertificate",
        "WalkerState",
        "build_special_state",
        "build_walk_operator",
        "demoivre_subspace",
        "eigenbasis",
        "enumerate_seeded",
        "evolve",
        "full_spectrum",
        "parse_fraction",
        "parse_value",
        "power_deviation",
        "revival_period",
        "solve_approximate",
        "solve_rho_edge",
        "solve_seeded",
        "verify_table",
        "weight",
        "weight_forms",
    ]
    assert all(hasattr(cyclewalk, name) for name in cyclewalk.__all__)


@pytest.mark.parametrize("module", ["cyclewalk", *(f"cyclewalk.{layer}" for layer in LAYERS)])
def test_dense_oracles_are_not_in_the_library(module):
    exposed = [name for name in MOVED_TO_ORACLES if hasattr(importlib.import_module(module), name)]
    assert exposed == []


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each `from .x import y` (or `from cyclewalk.x import y`); the module
    of `from . import x` is ""."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("cyclewalk")
        ):
            module = (node.module or "").removeprefix("cyclewalk").lstrip(".")
            found += [(module, a.name) for a in node.names]
    return found


#: (module, name) pairs each library module imports from the package, by file name
LIBRARY_IMPORTS = {
    path.name: package_imports(path.read_text())
    for path in sorted((SRC / "cyclewalk").glob("*.py"))
}


def private(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The pairs whose imported name is private (`from .x import _y`)."""
    return [(module, name) for module, name in pairs if name.startswith("_")]


def test_no_module_imports_a_private_name_from_another():
    # layers reach each other only through public names
    assert private(package_imports("from .revival import CERTIFICATION_TOL, _CHUNK_BLOCKS")) == [
        ("revival", "_CHUNK_BLOCKS")
    ]
    assert private(package_imports("from __future__ import annotations")) == []
    found = {name: private(pairs) for name, pairs in LIBRARY_IMPORTS.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_one_certificate_form():
    # a search returns its certified columns; the rows and the dict codec are not the library's
    assert importlib.import_module("cyclewalk.cli").__all__ == ["main"]
    solver = importlib.import_module("cyclewalk.solver")
    assert {"SolutionFamily", "seed_search"} & set(solver.__all__) == set()
    assert not hasattr(RevivalCertificate, "from_generators")
    assert not hasattr(RevivalCertificate, "rho_display")
    # every solver returns its certified columns: no row is turned back into columns
    assert not hasattr(CertificateColumns, "of")
    assert not hasattr(solver, "RevivalCertificate")


def test_one_table_form_and_one_line_walk():
    # `verify_table` returns the columns `verify --table` writes; `line_steps` is the line walk
    gone = {
        "cyclewalk": ("line_walk",),
        "cyclewalk.tables": ("TableCheck", "TableReport", "table_columns"),
        "cyclewalk.walk": ("LineWalkResult", "line_walk"),
    }
    for module, names in gone.items():
        assert [n for n in names if hasattr(importlib.import_module(module), n)] == [], module
    tables = importlib.import_module("cyclewalk.tables")
    assert list(inspect.signature(tables.verify_table).parameters) == ["table"]
    assert "line_steps" in importlib.import_module("cyclewalk.walk").__all__


def test_one_walk_step_and_one_form_of_the_blocks():
    # `cycle_steps` and `line_steps` share one coin-then-shift generator; the blocks are `su2`
    gone = {
        "cyclewalk.walk": ("_line_tables",),
        "cyclewalk.cli": ("_cycle_steps",),
    }
    for module, names in gone.items():
        assert [n for n in names if hasattr(importlib.import_module(module), n)] == [], module
    assert [n for n in ("step", "_sources", "symbols", "coin") if hasattr(WalkOperator, n)] == []
    op = WalkOperator(3, cyclewalk.HADAMARD)
    assert sorted(vars(op)) == ["k", "params", "su2"]
    assert not hasattr(cyclewalk.WalkerState, "position_probabilities")
    assert "cycle_steps" in importlib.import_module("cyclewalk.walk").__all__
    assert "cycle_steps" not in cyclewalk.__all__


def test_special_keeps_its_self_timed_names():
    # the benchmark tracer self-times both; the eigenbasis holds no dense vectors
    special = importlib.import_module("cyclewalk.special")
    assert {"eigenbasis", "build_special_state"} <= set(special.__all__)
    assert not hasattr(special.EigenBasis, "vectors")


def test_special_holds_the_eigenpairs_and_steps_its_fidelity_curve():
    # `spectral` reads its spectrum off `special.eigenbasis`; `cli` evolves nothing itself
    spectral = importlib.import_module("cyclewalk.spectral")
    assert spectral.__all__ == ["full_spectrum"]
    moved = ("block_eigenpairs", "_block_values", "BLOCK_RESIDUAL_TOL", "DEGENERACY_TOL",
             "BlockStructureError", "principal_phase")
    assert [name for name in moved if hasattr(spectral, name)] == []
    cli = importlib.import_module("cyclewalk.cli")
    assert [name for name in ("evolve", "build_walk_operator") if hasattr(cli, name)] == []


def test_solver_answers_only_at_a_rational_turn():
    # no per-phase branch for an irrational delta, so no library layer reads `spectral`
    importers = [
        name for name, pairs in LIBRARY_IMPORTS.items() if name != "__init__.py"
        and any(module == "spectral" or (module, imported) == ("", "spectral")
                for module, imported in pairs)
    ]
    assert importers == []
    revival = importlib.import_module("cyclewalk.revival")
    gone = ("UNDEFINED_DENOMINATOR_TOL", "PHASE_RECONSTRUCTION_TOL")
    assert [name for name in gone if name in revival.__all__] == []
    solver = importlib.import_module("cyclewalk.solver")
    assert [n for n in ("full_spectrum", "UNDEFINED_DENOMINATOR_TOL") if hasattr(solver, n)] == []


def test_walk_operator_has_no_dense_matrix():
    assert not hasattr(WalkOperator, "matrix")


def test_layer_exports_keep_the_self_timed_functions():
    # the benchmark tracer wraps only names a layer lists in __all__
    timed = {
        "walk": ("build_walk_operator", "evolve"),
        "spectral": ("full_spectrum",),
        "revival": ("power_deviation", "revival_period"),
        "solver": ("enumerate_seeded", "solve_approximate"),
        "tables": ("verify_table",),
        "special": ("eigenbasis", "build_special_state"),
        "cli": ("main",),
        "exprs": ("parse_value", "parse_fraction"),
    }
    for layer, names in timed.items():
        assert set(names) <= set(importlib.import_module(f"cyclewalk.{layer}").__all__), layer


def test_import_path_loads_neither_scipy_nor_sympy():
    # each would add about 0.3 s to every start-up; tests may use them as oracles
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, cyclewalk, cyclewalk.cli\n"
        "print(sorted({'scipy', 'sympy'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_revival_period_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 6 ms of a one-off run
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, cyclewalk, cyclewalk.cli\n"
        "assert cyclewalk.revival_period(3, cyclewalk.CoinParams(2 / 3)).N == 8\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
