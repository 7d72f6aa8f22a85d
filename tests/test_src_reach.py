"""The library ships no code that only the tests call: every public
module-level function or class in `src/kleinian` is referenced by other
library code or exported by the package."""

import ast
import importlib.util
import inspect
from pathlib import Path

import kleinian
from kleinian import cli, groups, patterson

SRC = Path(kleinian.__file__).resolve().parent

# Public names that no library code references, each with why it stays.
KEPT = {
    "shadow_cover_bound": "perfbench/spans.py wraps it by name for the "
                          "patterson.audit span",
    "minimal_fait_scale": "acceptance criterion 09 reports the (C, kappa) it "
                          "measures on the annular counts",
}


def _scan():
    """(public definitions as name -> module, referenced names as
    name -> {(module, top-level definition enclosing the reference)})."""
    defined, referenced = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if owner is not None and not owner.startswith("_"):
                defined[owner] = path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                referenced.setdefault(name, set()).add((path.stem, owner))
    return defined, referenced


def _unreached():
    defined, referenced = _scan()
    return sorted(
        name for name, module in defined.items()
        if name not in kleinian.__all__
        and not referenced.get(name, set()) - {(module, name)})


def test_every_public_definition_is_used_or_exported():
    assert _unreached() == sorted(KEPT)


def test_every_name_the_benchmark_patches_resolves():
    # perfbench/spans.py replaces these attributes by name in traced runs;
    # loading it (without installing anything) resolves its class lists.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SCALAR_BINDINGS and spans.PATTERSON_LAYER and spans.CSV_WRITERS
    for owner, name in spans.SCALAR_BINDINGS:
        assert callable(getattr(owner, name)), (owner, name)
    for name in spans.PATTERSON_LAYER:
        assert inspect.isfunction(getattr(patterson, name)), name
    for cls in spans.CSV_WRITERS:
        assert callable(cls.write_csv), cls
    assert callable(cli.load_config) and callable(groups.enumerate_orbit)
    assert set(spans.KIND_LAYER) == set(groups.KINDS)


# Scalar primitives of `hyperbolic`, each a one-row call of the batch
# kernel that holds its formula.
ONE_ROW_CALLS = ("apply", "distance", "boundary_angle", "boundary_from_angle",
                 "apply_boundary", "boundary_at_angle", "direction_from",
                 "direction_angle_from", "busemann", "shadow")


def _own_arithmetic(source: str) -> dict[str, list[str]]:
    """The `math` calls and arithmetic operators in the bodies of the
    functions named in ONE_ROW_CALLS, by function name."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in ONE_ROW_CALLS:
            ops = found.setdefault(node.name, [])
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "math"):
                    ops.append(f"math.{sub.attr}")
                elif isinstance(sub, (ast.BinOp, ast.AugAssign)) or (
                        isinstance(sub, ast.UnaryOp) and not isinstance(sub.op, ast.Not)):
                    ops.append(type(sub.op).__name__)
    return found


def test_scalar_primitives_hold_no_formula_of_their_own():
    # A body of its own would be a second copy of a kernel's formula, free
    # to round apart from it.
    found = _own_arithmetic((SRC / "hyperbolic.py").read_text())
    assert sorted(found) == sorted(ONE_ROW_CALLS)
    assert {name: ops for name, ops in found.items() if ops} == {}
