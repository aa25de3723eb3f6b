"""The library names the benchmark's children use exist.

``perfbench/probe.py setup`` runs in every benchmark round, and a name it
cannot import leaves ``setup_s`` unmeasured; ``perfbench/trace_cli.py``
wraps ``Lexicon.match_compounds`` to count the compound pass.  Both
scripts are read, not run.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

from lexcov.automaton import Lexicon

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def lexcov_imports(path):
    """(module, name) of each name ``path`` imports from lexcov, with name
    None for a module it imports whole."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lexcov":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lexcov":
                    yield alias.name, None


@pytest.mark.parametrize("script", ["probe.py", "trace_cli.py"])
def test_lexcov_imports_resolve(script):
    imports = list(lexcov_imports(PERFBENCH / script))
    assert imports
    for module, name in imports:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{script}: {module}.{name}"


def test_traced_compound_matcher_exists():
    assert isinstance(Lexicon.__dict__.get("match_compounds"), types.FunctionType)
