"""Every quadrature rule that src/ builds is in one ledger, with its guard.

The scan (ast) finds each call in src/landauspec to a rule builder or a
fixed-order integrator and keys it by (calling function, callee).  LEDGER
holds one row per call site, naming what vouches for the rule's accuracy:

- "settled": `operators._settled` doubles the order until two orders agree;
- "margin": the moment kernel's check that every row falls 36 nats below its
  peak at both ends of its nodes;
- "oracle": the rule is itself an independent route, pinned by the named
  `verify` suite (and the acceptance criterion that runs it at its sizes);
- "caller": a builder whose size comes from its caller, whose row holds the
  guard;
- "unguarded": nothing checks the rule; the ROADMAP item that would.

A call site missing from LEDGER fails, and so does a row whose call site is
gone.  The ledger records guards; it adds none.
"""

import ast
from collections import Counter
from pathlib import Path

import landauspec
from landauspec import verify

SRC = Path(landauspec.__file__).parent

RULES = {"gauss_hermite", "gauss_laguerre", "gauss_legendre_panel", "support_rule",
         "_log_grid", "integrate_r2"}

LEDGER = [
    ("operators._pairing_matrix", "gauss_hermite", "settled", "weyl_matrix"),
    ("operators.hilbert_schmidt_check", "integrate_r2", "settled", "the symbol norm"),
    ("operators._radial_moments", "_log_grid", "margin", "rows without breakpoints"),
    ("operators._radial_moments", "support_rule", "margin", "rows of a weight with breakpoints"),
    ("operators._laguerre_sequence", "support_rule", "unguarded", "ROADMAP items 2-3"),
    ("symbols.fourier_radial_profile", "support_rule", "unguarded",
     "the 400-node Hankel step, ROADMAP items 2-3"),
    ("quadrature.support_rule", "gauss_legendre_panel", "unguarded",
     "the Legendre budget is sized, not checked: ROADMAP item 3"),
    ("quadrature.support_rule", "gauss_laguerre", "unguarded",
     "the Gauss-Laguerre tail, ROADMAP item 3"),
    ("symbols._disk_gauss_convolution", "gauss_legendre_panel", "unguarded",
     "the fixed 200-node phi rule, ROADMAP item 6"),
    ("quadrature.integrate_r2", "gauss_hermite", "caller", "each integrate_r2 row"),
    ("wigner.wigner_numeric", "gauss_hermite", "oracle", "wigner-closed-form"),
    ("wigner.husimi_numeric", "integrate_r2", "oracle", "husimi-closed-form"),
    ("wigner.wigner_fourier_check", "integrate_r2", "oracle", "fourier-halving"),
    ("verify.moyal_orthogonality", "gauss_hermite", "oracle", "moyal-orthogonality"),
]


def _call_sites():
    """(module.function, callee) of every call to a RULES name in src/, one per call."""
    sites = []

    def walk(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                walk(child, module, function or child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in RULES:
                    sites.append((f"{module}.{function}", name))
            walk(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_every_rule_call_site_is_in_the_ledger():
    found = Counter(_call_sites())
    listed = Counter((caller, callee) for caller, callee, _, _ in LEDGER)
    assert sorted((found - listed).elements()) == []     # unlisted call sites
    assert sorted((listed - found).elements()) == []     # rows whose call site is gone


def test_every_guard_is_one_of_the_known_kinds():
    assert {kind for _, _, kind, _ in LEDGER} <= {"settled", "margin", "oracle", "caller",
                                                   "unguarded"}
    suites = {name for name, _, _ in verify.SUITES}
    assert [what for _, _, kind, what in LEDGER
            if kind == "oracle" and what not in suites] == []
    assert [what for _, _, kind, what in LEDGER
            if kind == "unguarded" and "ROADMAP item" not in what] == []
