"""Each convention of the package has one owner, checked on the source with ``ast``.

* Refusals: every exception class of the package derives from
  ``liealg.LieAlgebraError``, which the CLI reports as a validation error,
  except ``files.ParseError`` (a parse error, exit 2) and
  ``ratlin.SubspaceNotContained`` (an invariant of the elimination engine).
* Cell layout: only ``cecomplex`` reads the tuple ranking (``_rank``,
  ``_unrank``); every other module asks a ``CochainLevel`` for ``index``
  or ``cell``.
* Modules: a ``GModule`` is its algebra, dimension and action matrices
  only; whether the module axiom holds is ``gmod.check_module_axiom``'s to
  say, not a field's.
"""

import ast
import builtins
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"
_TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))}
_REFUSAL_BASE = "LieAlgebraError"
_NOT_REFUSALS = {"ParseError", "SubspaceNotContained"}
_CELL_RANKING = {"_rank", "_unrank"}


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _class_bases():
    """{class name: names of its bases} for every class the package defines."""
    out = {}
    for tree in _TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assert node.name not in out, f"class {node.name} is defined twice"
                out[node.name] = [_base_name(b) for b in node.bases]
    return out


def _ancestors(name, bases):
    seen = []
    todo = [name]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(bases.get(current, []))
    return seen


def _is_builtin_exception(name):
    value = getattr(builtins, name or "", None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_every_exception_class_is_a_refusal():
    bases = _class_bases()
    exceptions = {name for name in bases
                  if any(_is_builtin_exception(a) for a in _ancestors(name, bases))}
    assert {_REFUSAL_BASE, *_NOT_REFUSALS} <= exceptions
    strays = sorted(name for name in exceptions - _NOT_REFUSALS - {_REFUSAL_BASE}
                    if _REFUSAL_BASE not in _ancestors(name, bases))
    assert strays == []


def test_only_cecomplex_reads_the_cell_ranking():
    readers = set()
    for module, tree in _TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            readers.update(f"{module}:{name}" for name in names & _CELL_RANKING)
    assert sorted(r for r in readers if not r.startswith("cecomplex:")) == []


def test_a_module_is_its_algebra_dimension_and_actions_only():
    (cls,) = (node for node in ast.walk(_TREES["gmod"])
              if isinstance(node, ast.ClassDef) and node.name == "GModule")
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["algebra", "vdim", "actions"]
