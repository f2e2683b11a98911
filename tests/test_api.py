"""The public surface: `rcmsim.__all__`, the CLI subcommands and the names
the benchmark uses.

The benchmark harness under bench/ imports rcmsim but is not part of this
suite, so removing a name it uses would break it unseen; this file pins
the surface and checks the harness against it.
"""

import argparse
import ast
import importlib.util
from pathlib import Path

import rcmsim
from rcmsim import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = [
    "ChenSteinParams", "ConfigError", "ConnectionModel", "CoupledSample", "Metric",
    "ModelError", "ModelValidationReport", "NetworkSample", "ParameterError",
    "QuadratureError", "RcmError", "SampleParams", "TheoryReport", "TrialRecord",
    "build_graph", "chen_stein_terms", "components", "connection_radius",
    "couple_torus_to_square", "coupled_statistics", "distance_arrays",
    "expected_isolated", "gaussian", "isolated_count", "load_table", "log_normal",
    "sample_points", "table_model", "theory_report", "trial_statistics",
    "truncation_bias", "tv_to_poisson", "unit_disk", "validate_model",
]

SUBCOMMANDS = ["simulate", "theory", "validate-model"]


def _used(path: Path, module: str) -> set[str]:
    """Names a source file takes from `module`: `from module import x` and
    `module.x` (dunders aside)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            used.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module.rpartition(".")[2]
              and not node.attr.startswith("__")):
            used.add(node.attr)
    return used


def test_public_names_are_pinned():
    assert sorted(rcmsim.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rcmsim, name) is not None, name


def test_subcommands_are_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == SUBCOMMANDS


def test_benchmark_uses_only_public_names():
    for name in ("tracing.py", "checks.py"):
        for used in _used(BENCH / name, "rcmsim"):
            # a submodule such as cli is imported, not exported
            assert used in PUBLIC or importlib.util.find_spec(f"rcmsim.{used}"), (name, used)


def test_benchmark_cli_names_resolve():
    for path in sorted(BENCH.glob("*.py")):
        for used in _used(path, "rcmsim.cli"):
            assert hasattr(cli, used), (path.name, used)


_NAMED = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def _defined(top: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a function or class, or the
    targets of an assignment."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {top.name}
    targets = getattr(top, "targets", [getattr(top, "target", None)])
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def _references(source: str) -> set[str]:
    """Names a module refers to, as names, attributes or imports, less each
    top-level definition's references to itself."""
    refs = set()
    for top in ast.parse(source).body:
        names = {getattr(n, _NAMED[type(n)]) for n in ast.walk(top) if type(n) in _NAMED}
        refs |= names - _defined(top)
    return refs


def test_every_public_name_has_a_caller():
    # a name that only the tests call is not worth exporting
    src = Path(rcmsim.__file__).resolve().parent
    used = set().union(*(_references(p.read_text()) for p in src.glob("*.py")
                         if p.name != "__init__.py"),
                       *(_used(p, "rcmsim") for p in BENCH.glob("*.py")))
    readme = (BENCH.parent / "README.md").read_text()
    used |= _references(readme.split("## Library", 1)[1].split("```python\n", 1)[1]
                        .split("```", 1)[0])
    assert [name for name in rcmsim.__all__ if name not in used] == []


def test_every_private_name_has_a_caller():
    # a private helper that only the tests call, such as one folded into
    # another, is dead code
    sources = [p.read_text() for p in Path(rcmsim.__file__).resolve().parent.glob("*.py")]
    used = set().union(*map(_references, sources))
    private = {name for source in sources for top in ast.parse(source).body
               for name in _defined(top) if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - used) == []
