"""The library ships no code that only the tests call: every public
module-level function or class in `src/kleinian` is referenced by other
library code or exported by the package."""

import ast
import importlib.util
import math
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
                 "direction_angle_from", "busemann", "shadow", "width")


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


# Functions of `groups` that form free letters and words as float arrays.
# An Isometry made or composed in them would rescale every product by the
# square root of its determinant, which cancels for large entries: the
# rotated depth-8 nested letters were off by 3.8e-6 that way.
ARRAY_LETTERS = ("_free_letters", "word_matrix")


def _isometry_uses(source: str) -> dict[str, list[str]]:
    """The references to `Isometry` and the calls of its methods that make
    or compose isometries in the functions named in ARRAY_LETTERS."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in ARRAY_LETTERS:
            found[node.name] = [
                ast.unparse(sub) for sub in ast.walk(node)
                if (isinstance(sub, ast.Name) and sub.id == "Isometry")
                or (isinstance(sub, ast.Attribute)
                    and sub.attr in ("identity", "inverse", "compose"))]
    return found


def test_letters_and_words_are_formed_without_isometries(monkeypatch):
    assert _isometry_uses((SRC / "groups.py").read_text()) == {
        name: [] for name in ARRAY_LETTERS}
    # No `@` between isometries either: composing one raises while the
    # letters and words of every free kind are formed.
    a, b = groups.Isometry(3.0, 0.0, 0.0, 1.0 / 3.0), groups.Isometry(1.25, 0.75, 0.75, 1.25)
    r = groups.Isometry(math.cos(0.35), math.sin(0.35), -math.sin(0.35), math.cos(0.35))
    p = groups.Isometry(1.0, 3.0, 0.0, 1.0)
    specs = [groups.schottky_spec(a, b), groups.cyclic_spec(p),
             groups.nested_subgroup_spec(a, b, 8),
             groups.nested_subgroup_spec(r.inverse() @ a @ r, r.inverse() @ b @ r, 8),
             groups.nested_subgroup_spec(r.inverse() @ p @ r, b, 8),
             groups.nested_subgroup_spec(r, b, 8), groups.conjugate(groups.schottky_spec(a, b), r)]

    def refuse(self, other):
        raise AssertionError("an Isometry was composed")

    monkeypatch.setattr(groups.Isometry, "compose", refuse)
    monkeypatch.setattr(groups.Isometry, "__matmul__", refuse)
    for spec in specs:
        assert groups._free_letters(spec).shape[1:] == (2, 2)
        assert groups.word_matrix(spec, (1, -1, 1)).shape == (2, 2)


# The kernels that take sqrt(Im p) of a basepoint p: the frame K_x m K_y^-1
# and the distance.  That root anywhere else would be a second copy of the
# frame, free to round apart from it.
FRAME_KERNELS = ("frames_many", "distances_many")


def _basepoint_roots() -> set[str]:
    """The functions in `src/kleinian` that call a `sqrt` on the `im` of a
    point, as `math.sqrt(p.im)`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "sqrt" and sub.args
                    and isinstance(sub.args[0], ast.Attribute) and sub.args[0].attr == "im"
                    for sub in ast.walk(node)):
                found.add(node.name)
    return found


def test_only_the_frame_and_distance_kernels_take_a_basepoint_root():
    assert _basepoint_roots() == set(FRAME_KERNELS)
