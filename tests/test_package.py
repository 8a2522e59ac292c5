"""What ``wfmig`` exports, and what each module imports."""

import ast
import pathlib
from inspect import ismodule

import wfmig

TESTS = pathlib.Path(__file__).resolve().parent


def _imports(path):
    """(module, bound name) of each import in the file; ``import a.b``
    binds ``a``, and a relative module keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((a.name, a.asname or a.name.split(".")[0])
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (("." * node.level + (node.module or ""),
                         a.asname or a.name) for a in node.names)


def test_package_exports_only_what_a_command_runs():
    assert sorted(n for n in dir(wfmig) if not n.startswith("_")
                  and not ismodule(getattr(wfmig, n))) == sorted([
        "WfmigError", "NetFormatError", "StateLimitError", "TtsLimitError",
        "UnsafeNetError", "Transition", "ValidationReport", "Violation",
        "WFNet", "marking_key", "validate_structural", "ReachGraph",
        "build_reachability", "validate_behavioral", "tts_all",
        "MappingTable", "change_region", "find_equivalence_mapping",
        "GenParams", "random_wfnet", "parse_net", "serialize_net"])


def test_reference_code_imports_nothing_it_checks():
    checked = {"wfmig.tts", "wfmig.equivalence"}
    for module, bound in _imports(TESTS / "reference.py"):
        value = getattr(wfmig, bound, None) if module == "wfmig" else None
        origin = (value.__name__ if ismodule(value)
                  else getattr(value, "__module__", None))
        assert module not in checked and origin not in checked, bound


def test_every_name_a_module_imports_is_used():
    for path in (TESTS.parent / "src" / "wfmig").glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            assert [b for _, b in _imports(path) if b not in used] == [], (
                path.name)
