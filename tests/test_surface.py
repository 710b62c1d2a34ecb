"""The library's public surface is what its own code reaches.

Every public function, class and method of src/landauspec must be named
somewhere in src/ outside its own definition, or be listed below with the
caller outside src/ that keeps it.  Test-only routes live in
tests/reference_routes.py instead.  The check is by name (ast), so a name
that some other code also uses counts as referenced.
"""

import ast
from collections import Counter
from pathlib import Path

import landauspec

SRC = Path(landauspec.__file__).parent

# public API whose only callers are the acceptance criteria or the benchmark
ENTRY_POINTS = {
    "symbols.phase_space_volume": "acceptance criterion 13: the volume of the counting law",
    "symbols.condition_C_estimate": "acceptance criterion 13: condition (C) on that volume",
    "asymptotics.compare_series": "acceptance criteria 10-12: residuals against a decay law",
    "asymptotics.ResidualReport.window_stats": "acceptance criteria 11-12: windowed residuals",
    "operators.SpectrumReport.clusters": "acceptance criterion 9: planted multiplicities",
    "specfun.log_gammainc_lower": "acceptance criterion 11: the compact-support oracle",
    "operators.birman_schwinger_check": "acceptance criterion 15 and the benchmark's "
                                        "sandwich jobs",
}


def _public_definitions(tree):
    """(qualified name, node) of the module's public functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names(tree):
    """Count of every identifier, attribute and imported name in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_every_public_name_is_reached_from_src_or_listed():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    # a name is reached when src/ uses it more often than its own definition does
    unreached = [f"{module}.{qualname}"
                 for module, tree in trees.items()
                 for qualname, node in _public_definitions(tree)
                 if everywhere[node.name] == _names(node)[node.name]]
    assert sorted(set(unreached) - set(ENTRY_POINTS)) == []
    # an entry that src/ now reaches, or that is gone, leaves the list
    assert sorted(set(ENTRY_POINTS) - set(unreached)) == []
