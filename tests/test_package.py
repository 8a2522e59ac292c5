"""What ``wfmig`` exports, and what each module imports."""

import ast
import os
import pathlib
import subprocess
import sys
from inspect import ismodule

import pytest

import wfmig
from wfmig.equivalence import MappingTable
from wfmig.net import Transition, ValidationReport, Violation
from wfmig.oracle import GenParams
from wfmig.tts import Cycle, EdgeSet

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FIXTURES = TESTS.parent / "fixtures"


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


def test_no_module_imports_dataclasses():
    for path in (SRC / "wfmig").glob("*.py"):
        assert "dataclasses" not in {m for m, _ in _imports(path)}, path.name


def _fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=env)


# prints the modules that importing the CLI and running the command given
# as its arguments loaded, against those present before: ``site`` may
# already have loaded some (``random``, say)
LOADED = """\
import os, sys
before = set(sys.modules)
import wfmig.cli
code = 0
if sys.argv[1:]:
    with open(os.devnull, "w") as sink:
        sys.stdout = sink
        code = wfmig.cli.main(sys.argv[1:])
        sys.stdout = sys.__stdout__
print("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

_OLD, _NEW = str(FIXTURES / "fig8_old.json"), str(FIXTURES / "fig8_new.json")
_OPTIONAL = {"dataclasses", "csv", "wfmig.tts", "wfmig.equivalence",
             "wfmig.oracle"}


@pytest.mark.parametrize("argv, loads", [
    ([], set()),
    (["validate", _OLD], set()),
    (["reach", _OLD], set()),
    (["tts", _OLD, "--marking", "p1"], {"wfmig.tts"}),
    (["map", "--old", _OLD, "--new", _NEW, "--format", "json"],
     {"wfmig.tts", "wfmig.equivalence"}),
    (["map", "--old", _OLD, "--new", _NEW, "--format", "csv"],
     {"csv", "wfmig.tts", "wfmig.equivalence"}),
    (["gen-net", "--seed", "3"], {"wfmig.oracle"}),
], ids=["import", "validate", "reach", "tts", "map-json", "map-csv",
        "gen-net"])
def test_each_command_loads_only_the_modules_it_runs(argv, loads):
    run = _fresh(LOADED, *argv)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert {"wfmig.cli", "wfmig.net", "wfmig.reachability"} <= loaded
    assert loaded & _OPTIONAL == loads


def test_submodules_resolve_as_package_attributes_after_the_cli():
    # what the benchmark's tracer reads once a validate call has run
    run = _fresh("import sys, wfmig, wfmig.cli\n"
                 "assert 'wfmig.tts' not in sys.modules\n"
                 "print(wfmig.tts.tts_all.__module__,\n"
                 "      wfmig.equivalence.purge.__module__,\n"
                 "      wfmig.GenParams.__module__)\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["wfmig.tts", "wfmig.equivalence",
                                  "wfmig.oracle"]


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        wfmig.nope


# (value, its repr, the same value built by keyword with defaults, a value
# differing in one field); the repr is the one the frozen dataclasses these
# types once were gave
RECORDS = [
    (Transition("t"), "Transition(label='t', is_empty=False)",
     Transition(label="t"), Transition("t", True)),
    (Violation("NO_SINK", "no place without outgoing arcs", ""),
     "Violation(code='NO_SINK', message='no place without outgoing arcs', "
     "element='')",
     Violation(code="NO_SINK", element="",
               message="no place without outgoing arcs"),
     Violation("NO_SINK", "no place without outgoing arcs", "e")),
    (ValidationReport(()), "ValidationReport(violations=())",
     ValidationReport(violations=()),
     ValidationReport((Violation("NO_SOURCE", "m", ""),))),
    (MappingTable((("p1", ("q1",)),)), "MappingTable(rows=(('p1', ('q1',)),))",
     MappingTable(rows=(("p1", ("q1",)),)), MappingTable(())),
    (GenParams(3, 24, 10, 0.2, 0.3),
     "GenParams(seed=3, max_places=24, max_transitions=10, "
     "loop_probability=0.2, parallel_probability=0.3)",
     GenParams(seed=3, max_places=24), GenParams(seed=3)),
    (Cycle((0, 1), frozenset({0, 1})),
     "Cycle(edges=(0, 1), node_set=frozenset({0, 1}))",
     Cycle(node_set=frozenset({1, 0}), edges=(0, 1)),
     Cycle((1, 0), frozenset({0, 1}))),
    (EdgeSet(frozenset({2}), frozenset({0, 1})),
     "EdgeSet(edges=frozenset({2}), nodes=frozenset({0, 1}))",
     EdgeSet(nodes=frozenset({0, 1}), edges=frozenset({2})),
     EdgeSet(frozenset(), frozenset({0, 1}))),
]


@pytest.mark.parametrize("value, text, by_keyword, other", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_types_keep_what_callers_see(value, text, by_keyword, other):
    assert repr(value) == text
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert value != other
    assert len({value, by_keyword, other}) == 2
    with pytest.raises(AttributeError):      # a field cannot be set
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):      # nor can a new attribute
        value.extra = None


def test_validation_report_ok_and_codes():
    assert ValidationReport(()).ok and ValidationReport(()).codes() == set()
    report = ValidationReport((Violation("MULTIPLE_SINKS", "m", "a"),
                               Violation("MULTIPLE_SINKS", "m", "b"),
                               Violation("NO_SOURCE", "m", "")))
    assert not report.ok
    assert report.codes() == {"MULTIPLE_SINKS", "NO_SOURCE"}


def test_edge_set_from_path_and_absorb():
    class Graph:            # the one field ``from_path`` reads
        dst = [1, 2, 0]
    seed = EdgeSet.from_path(Graph, (0, 1), 0)
    assert seed == EdgeSet(frozenset({0, 1}), frozenset({0, 1, 2}))
    grown = seed.absorb(Cycle((2,), frozenset({2, 3})))
    assert type(grown) is EdgeSet
    assert grown == EdgeSet(frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}))
