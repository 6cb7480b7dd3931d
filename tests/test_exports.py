"""`__all__` is the one meaning of "public": in every module it lists
exactly the top-level definitions without a leading underscore, the
package re-exports only names that their home module lists, and every
listed name is used by the package itself, not only by the tests."""

import ast
import importlib
from pathlib import Path

import aglcount

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
