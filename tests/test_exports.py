"""Every exported name resolves, and the package exports what it re-exports."""

import ast
import importlib
import pathlib
import sys

import pytest

import overgap

MODULES = {
    name: importlib.import_module(f"overgap.{name}")
    for name in ("qseries", "partitions", "maps", "hyper", "cli")
}


@pytest.mark.parametrize("module", [overgap, *MODULES.values()], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(module.__all__) == len(set(module.__all__)), "duplicate export"
    for attr in module.__all__:
        assert hasattr(module, attr), f"{module.__name__}.__all__ lists missing {attr}"


def test_package_exports_exactly_its_re_exports():
    re_exported = {
        attr
        for module in MODULES.values()
        for attr in module.__all__
        if getattr(overgap, attr, None) is getattr(module, attr)
    }
    assert set(overgap.__all__) == re_exported | {"__version__"}


def test_modules_import_only_exported_names_from_each_other():
    src = pathlib.Path(overgap.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exported = MODULES[node.module].__all__
                for alias in node.names:
                    assert alias.name in exported, (
                        f"{path.name} imports {alias.name}, "
                        f"which {node.module}.__all__ does not list"
                    )


def test_package_imports_only_the_standard_library():
    src = pathlib.Path(overgap.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
