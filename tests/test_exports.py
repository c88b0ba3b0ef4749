"""Every exported name resolves, the package exports what it re-exports,
the CLI calls every exported function but a few kept on purpose,
its value records are frozen, and importing it stays cheap."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

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


def _records():
    mu, one = overgap.parse_overpartition("3,1"), overgap.QMonomial(1, 0, 0)
    return [
        one,
        overgap.Bipartition(3, 1, mu),
        overgap.HypergeometricSpec((one,), (), one),
        overgap.verify_identity_chain(1, 4),
        overgap.fold_preimages(mu, 3),
        overgap.verify_fiber_identity(1, 4, "fold"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_frozen(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # a subclass without __slots__ = () would take it


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(overgap.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, overgap, overgap.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],  # -S: no site hooks, only the package
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout == "[]\n"


# Every command, each --z mode and both maps, small enough to run traced.
LIVE_ARGVS = [
    *(["table", "--t", "3", "--max-n", "12", "--z", z, "--check"]
      for z in ("tracked", "one", "zero")),
    ["verify", "--suite", "all", "--t", "1..2", "--order", "12"],
    ["fold", "--t", "3", "5,5,3~,2"],
    ["merge", "--t", "3", "[3^2 | 2~,1]"],
    ["preimages", "--check", "--t", "3", "--map", "fold", "3,3,1"],
    ["preimages", "--check", "--t", "3", "--map", "merge", "3,3,1"],
]

# Exported functions no CLI run calls, each kept for a caller outside src/.
KEPT_UNCALLED = {
    "qseries.qs_add": "ACCEPT-07 sums fiber weights and ACCEPT-12 checks the ring laws with it",
    "qseries.qs_invert": "ACCEPT-12 checks inversion",
    "qseries.bounded_gap_partition_gf": "Breuer-Kronholm's z = 0 case (ACCEPT-03, bench)",
}


def test_every_exported_function_is_live():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [MODULES["cli"].main(argv) for argv in LIVE_ARGVS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(LIVE_ARGVS)
    uncalled = {
        f"{layer}.{attr}"
        for layer in ("qseries", "partitions", "maps", "hyper")
        for attr in MODULES[layer].__all__
        if isinstance(fn := getattr(MODULES[layer], attr), types.FunctionType)
        and fn.__code__ not in called
    }
    assert uncalled == set(KEPT_UNCALLED)
