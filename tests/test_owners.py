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
* Incidence: only the cores of i_X and L_X and ``_cofaces`` walk the face
  table ``cecomplex._faces``; the degree -1 map and the wedges with e^x
  read the cached unit batch of i_X.
* Brackets: the library brackets Matrix rows in batches
  (``liealg._pair_brackets``); the single-pair ``LieAlgebra.bracket`` is
  for callers outside it.
* Catalog: a row of ``extensions._CATALOG`` builds one algebra, subalgebra
  or extension pair, and ``extensions.builtin`` reads the entry's
  algebra, h and pair from it.
"""

import ast
import builtins
from pathlib import Path

from liecoh.extensions import BUILTIN_NAMES, builtin

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"
_TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))}
_REFUSAL_BASE = "LieAlgebraError"
_NOT_REFUSALS = {"ParseError", "SubspaceNotContained"}
_CELL_RANKING = {"_rank", "_unrank"}
_FACE_WALKERS = {"cecomplex:_interior_products", "cecomplex:_lie_derivative_core",
                 "cecomplex:_cofaces"}


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


def test_a_catalog_entry_is_its_name_algebra_h_and_pair_only():
    (cls,) = (node for node in ast.walk(_TREES["extensions"])
              if isinstance(node, ast.ClassDef) and node.name == "CatalogEntry")
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["name", "algebra", "h", "pair"]


def test_a_catalog_entry_reads_its_parts_from_the_one_object_built():
    names = [n.replace(":n", ":3").replace(":alpha", ":2") for n in BUILTIN_NAMES]
    assert "abelian:3" in names and "fivedim_ext:2" in names
    for name in names:
        entry = builtin(name)
        if entry.pair is not None:
            assert entry.pair.isotropy is entry.h, name
        if entry.h is not None:
            assert entry.h.ambient == entry.algebra, name


def _names(node):
    """The names a node reads: a Name, an attribute, or an imported alias."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.name} if isinstance(node, ast.alias) else set()


def test_only_the_interior_and_lie_cores_walk_the_faces():
    readers = set()
    for module, tree in _TREES.items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            if any("_faces" in _names(node) for node in ast.walk(top)):
                readers.add(f"{module}:{owner}")
    assert readers == _FACE_WALKERS


def test_the_library_calls_no_single_pair_bracket():
    calls = sorted(f"{module}:{node.lineno}" for module, tree in _TREES.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "bracket")
    assert calls == []
