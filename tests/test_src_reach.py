"""The library ships no code that only the tests call: every public
module-level function or class in `src/kleinian` is referenced by other
library code or exported by the package."""

import ast
from pathlib import Path

import kleinian

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

