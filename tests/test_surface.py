"""The library's surface is what its own code reaches.

Every public function, class and method of src/landauspec must be named
somewhere in src/ outside its own definition, or be listed below with the
caller outside src/ that keeps it.  Every private one (a module-level
_function or _Class, or a _method that is not a dunder) must be named in
src/ outside its definition, with no exceptions: a private helper that only
a test calls is dead code.  Every module-level constant must be read in src/
outside its own assignment, so a tuning constant outlives no code path.
Every parameter of every function must be read in its body, or be listed
below with the caller that still passes it.
Test-only routes live in tests/reference_routes.py instead.  The check is by
name (ast), so a name that some other code also uses counts as referenced.
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
    "capacity.CompactSet.project": "the projection tests and the benchmark's projection "
                                   "counter; the ascent calls CompactSet._project",
}

# parameters that src/ accepts without reading, with the caller that passes them
UNREAD_PARAMETERS = {
    "operators.birman_schwinger_check.order": "perfbench/worker.py passes it on every "
                                              "sandwich job",
}


def _definitions(tree, private):
    """(qualified name, node) of the module's public, or private, functions, classes
    and methods; dunder methods are neither."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") == private:
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                        and item.name.startswith("_") == private):
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


def _unreached(private):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    # a name is reached when src/ uses it more often than its own definition does
    return [f"{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, node in _definitions(tree, private)
            if everywhere[node.name] == _names(node)[node.name]]


def test_every_public_name_is_reached_from_src_or_listed():
    unreached = _unreached(private=False)
    assert sorted(set(unreached) - set(ENTRY_POINTS)) == []
    # an entry that src/ now reaches, or that is gone, leaves the list
    assert sorted(set(ENTRY_POINTS) - set(unreached)) == []


def test_every_private_name_is_reached_from_src():
    assert _unreached(private=True) == []


def _constants(tree):
    """(name, node) of every name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node


def _reads(tree):
    """Count of every identifier or attribute that tree reads."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def test_every_module_constant_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name, node in _constants(tree) if everywhere[name] == _reads(node)[name]]
    # __all__ is read by `from landauspec import *`, not by src/
    assert unread == ["__init__.__all__"]


def _functions(node, scope):
    """(qualified name, node) of every function and lambda below node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}"
            yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, f"{scope}.{child.name}"
                                  if isinstance(child, ast.ClassDef) else scope)


def test_every_parameter_is_read_or_listed():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text()), path.stem):
            args = fn.args
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{name}.{arg.arg}" for arg in (
                args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg])
                if arg and arg.arg not in read]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)
