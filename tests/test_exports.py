"""`__all__` is the one meaning of "public": in every module it lists
exactly the top-level definitions without a leading underscore, the
package re-exports only names that their home module lists, and every
listed name is used by the package itself, not only by the tests.

The public records are named tuples: immutable values that compare, hash
and pickle by their fields, and those with checks run them wherever a
value is built.  Importing the package pulls in no `dataclasses`."""

import ast
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import aglcount
from aglcount.compound import AsymptoticRow
from aglcount.conjugacy import ClassIndex
from aglcount.fields import field
from aglcount.linalg import AffineMap, GFMatrix, PackedMap
from aglcount.numtheory import PrimePower
from aglcount.reps import ClassCheckReport
from aglcount.rm import RMQuotientBasis

PACKAGE = Path(aglcount.__file__).parent


def top_level(path):
    """(names defined at top level, names imported, __all__ or None)."""
    defined, imported, listed = set(), set(), None
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    listed = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    return defined, imported, listed


def test_all_lists_exactly_the_public_definitions():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
    assert len(modules) >= 11
    for path in modules:
        defined, _, listed = top_level(path)
        public = sorted(name for name in defined if not name.startswith("_"))
        assert listed is not None, path.name
        assert sorted(listed) == public, path.name
        assert listed == sorted(listed), path.name


def test_package_reexports_only_listed_names():
    defined, imported, listed = top_level(PACKAGE / "__init__.py")
    assert sorted(listed) == sorted(imported - {"annotations"})
    assert not [name for name in defined if not name.startswith("_")]
    for name in listed:
        home = importlib.import_module(getattr(aglcount, name).__module__)
        assert name in home.__all__, name


def references(path):
    """Names that a module reads (as a name or an attribute) or imports,
    leaving out what each top-level definition says about itself."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names = {sub.id}
            elif isinstance(sub, ast.Attribute):
                names = {sub.attr}
            elif isinstance(sub, ast.ImportFrom):
                names = {alias.name for alias in sub.names}
            else:
                continue
            found |= names - own
    return found


def test_every_listed_name_has_a_caller_in_the_package():
    # a re-export from __init__.py is an import, so it counts; this is a
    # leaf check: a name counts as used if anything in the package reads
    # it, even code that is itself unused
    used = set().union(*(references(p) for p in PACKAGE.glob("*.py")))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
        for name in top_level(path)[2]
        if name not in used
    ]
    assert not unused


def test_main_module_defines_nothing():
    defined, _, listed = top_level(PACKAGE / "__main__.py")
    assert not defined and listed is None


def test_import_pulls_in_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, about 10 ms of
    # every run's start-up
    script = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import aglcount, aglcount.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


F2 = field(2)
SHEAR = GFMatrix(F2, [[1, 1], [0, 1]])
SINGULAR = GFMatrix(F2, [[1, 1], [1, 1]])
INDEX = ClassIndex(n=2, q=2, unipotent=(0, 1), spectra=())

# (record, field values, and for a record with checks a field, a value it
# refuses and the refusal message, else None)
RECORDS = [
    (PrimePower, (8, 2, 3), None),
    (AffineMap, (SHEAR, (1, 0)), ("matrix", SINGULAR, "affine map matrix must be invertible")),
    (PackedMap, ((0b01, 0b11), 0b01), None),
    (RMQuotientBasis, (4, 0, 2), ("s", 2, r"invalid quotient basis \(4, 2, 2\)")),
    (ClassCheckReport, (INDEX, 2, 2, 3, 3, ()), None),
    (AsymptoticRow, (5, 7, 6, (9, 8), "1.125", "0.125", "1.1"), None),
]


@pytest.mark.parametrize("record, values, refused", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_value_semantics(record, values, refused):
    positional = record(*values)
    keyword = record(**dict(zip(record._fields, values)))
    assert keyword == positional and hash(keyword) == hash(positional)
    with pytest.raises(AttributeError):
        setattr(keyword, record._fields[0], values[0])
    assert pickle.loads(pickle.dumps(keyword)) == keyword
    if refused is not None:
        name, bad, message = refused
        with pytest.raises(ValueError, match=message):
            keyword._replace(**{name: bad})
        # a value built past the checks is refused when it is unpickled
        forged = tuple.__new__(record, [bad if f == name else v for f, v in zip(record._fields, values)])
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged))
