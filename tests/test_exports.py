"""`__all__` is the one meaning of "public": in every module it lists
exactly the top-level definitions without a leading underscore, and the
package re-exports only names that their home module lists."""

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


def test_main_module_defines_nothing():
    defined, _, listed = top_level(PACKAGE / "__main__.py")
    assert not defined and listed is None
