import csv
import errno
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wfmig import (GenParams, NetFormatError, Transition,
                   WFNet, build_reachability, find_equivalence_mapping,
                   parse_net, random_wfnet, serialize_net, tts_all)
from wfmig import cli, netformat
from wfmig.cli import main
from wfmig.net import _scan as scan_net_rules, key_label
from wfmig.netformat import emit_json, mapping_document
from wfmig.reachability import mask_names, to_dot

from conftest import (FIXTURE_NAMES, GOLDEN, LONG_INT, ROOT, SURROGATE,
                      emit_cases, fixture_net, fixture_path as fx,
                      long_sequence_net, par_redo_net, with_empty_transitions)
from reference import oracle_tts
from test_fuzz import net_documents

# s -"x\ny"-> e and s -x-> m -y-> e: one printed line per TTS would show
# the TTS {"x\ny"} on the lines "{x" and "y}"
LINE_BREAK_LABEL = (
    '{"places": ["s", "m", "e"], "transitions": ["x\\ny", "x", "y"],'
    ' "arcs": [["s", "x\\ny"], ["x\\ny", "e"], ["s", "x"], ["x", "m"],'
    ' ["m", "y"], ["y", "e"]]}')

# s -t-> "e};{s": as a csv cell, the key {e};{s} reads as two markings
SEMICOLON = ('{"places": ["s", "e};{s"], "transitions": ["t"],'
             ' "arcs": [["s", "t"], ["t", "e};{s"]]}')

# s -t-> " m" -u-> e: the middle place name starts with a space
SPACED = ('{"places": ["s", " m", "e"], "transitions": ["t", "u"],'
          ' "arcs": [["s", "t"], ["t", " m"], [" m", "u"], ["u", "e"]]}')

MINIMAL = """
{
  "name": "minimal",
  "places": ["in", "out"],
  "transitions": ["t"],
  "arcs": [["in", "t"], ["t", "out"]]
}
"""


def test_parse_minimal():
    net = parse_net(MINIMAL)
    assert net.places == {"in", "out"}
    assert net.labels == {"t"}
    assert net.initial_marking == {"in"}


def test_round_trip_is_identity():
    nets = [parse_net(MINIMAL)] + [fixture_net(name) for name in FIXTURE_NAMES]
    nets += [random_wfnet(GenParams(seed=seed)) for seed in range(100)]
    nets += [with_empty_transitions(net, seed)
             for seed, net in enumerate(nets)]
    for net in nets:
        text = serialize_net(net)
        assert parse_net(text) == net
        assert serialize_net(parse_net(text)) == text
    for name in FIXTURE_NAMES:
        with open(fx(name), encoding="utf-8") as handle:
            text = handle.read()
        assert serialize_net(parse_net(text)) == text


# Names with JSON and DOT specials, inner spaces and non-ASCII characters;
# stripped, as place names may not start or end with whitespace.
NAMES = st.text(alphabet='ab"\\{} \xe9\u4e2d\U0001f600', min_size=1,
                max_size=5).map(str.strip).filter(bool)
QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


@st.composite
def renamed_nets(draw):
    """A generator net with about 30% empty transitions, its places and
    labels renamed one-to-one to names drawn from ``NAMES``."""
    seed = draw(st.integers(0, 10 ** 6))
    net = with_empty_transitions(random_wfnet(GenParams(seed=seed)), seed)
    old = sorted(net.places) + [t.label for t in net.transitions]
    to = dict(zip(old, draw(st.lists(NAMES, min_size=len(old),
                                     max_size=len(old), unique=True))))
    return WFNet([to[p] for p in net.places],
                 [Transition(to[t.label], t.is_empty)
                  for t in net.transitions],
                 [(to[a], to[b]) for a, b in net.arcs],
                 [to[p] for p in net.initial_marking], name=draw(NAMES))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(renamed_nets())
def test_round_trip_and_dot_on_arbitrary_names(net):
    text = serialize_net(net)
    assert parse_net(text) == net
    assert serialize_net(parse_net(text)) == text
    graph = build_reachability(net)
    lines = to_dot(graph).splitlines()[1:-1]
    keys = graph.keys()
    edges = [(keys[node], graph.labels[graph.lab[e]], keys[graph.dst[e]])
             for node in graph.nodes
             for e in range(graph.off[node], graph.off[node + 1])]
    quoted = [[re.sub(r"\\(.)", r"\1", q) for q in QUOTED.findall(line)]
              for line in lines]
    assert quoted == (
        [["{%s}" % key] for key in sorted(keys)]
        + [["{%s}" % src, "{%s}" % dst, label]
           for src, label, dst in sorted(edges)])


def test_emit_json_writes_what_json_dumps_writes():
    """emit_json writes the mapping document itself; mapping_document
    through json.dumps is the reference, on every ``emit_cases`` case."""
    for old, new, table in emit_cases():
        assert emit_json(old, new, table) == json.dumps(
            mapping_document(old, new, table), indent=2) + "\n"


def test_arcs_name_transitions_by_id():
    net = parse_net("""{"name": "ids", "places": ["s", "m", "e"],
        "transitions": [{"id": "t1", "label": "Approve"},
                        {"id": "t2", "label": "sync", "empty": true}],
        "arcs": [["s", "t1"], ["t1", "m"], ["m", "t2"], ["t2", "e"]]}""")
    assert net == WFNet(["s", "m", "e"],
                        ["Approve", Transition("sync", True)],
                        [("s", "Approve"), ("Approve", "m"),
                         ("m", "sync"), ("sync", "e")])
    assert net.name == "ids"
    assert net.empty_labels == {"sync"}
    assert not net.explicit_initial


PARSE_ERRORS = [
    ("{not json", "PARSE_ERROR: line 1 column 2: Expecting property name "
                  "enclosed in double quotes"),
    ('{"places": ["a"], "transitions": [], "arcs": [], "extra": 1}',
     "PARSE_ERROR: unknown keys: extra"),
    ('{"places": ["a", "b"], "transitions": [], "arcs": [["a", "b"]]}',
     "NON_BIPARTITE_ARC: arc 'a' -> 'b' does not connect a place with a "
     "transition"),
    ('{"places": ["a"], "transitions": ["t"], "arcs": [["a", "x"]]}',
     "UNKNOWN_ENDPOINT: arc endpoint 'x' is not a declared place or "
     "transition"),
    ('{"places": ["a", "a"], "transitions": [], "arcs": []}',
     "DUPLICATE_NAME: duplicate place name: 'a'"),
    ('{"places": ["a"], "transitions": ["t", "t"], "arcs": []}',
     "DUPLICATE_NAME: duplicate transition id 't'"),
    ('{"places": ["a", "b"], "transitions": ["t"],'
     ' "arcs": [["a", "t", 2]]}',  # weighted arc
     "PARSE_ERROR: arcs must be [from, to] name pairs (weighted arcs are "
     "not supported)"),
    ('{"places": ["a"], "transitions": ["t"], "arcs": [],'
     ' "initial_marking": ["zzz"]}',
     "UNKNOWN_ENDPOINT: initial marking names unknown place 'zzz'"),
    # a comma in a place name would collide with the marking key {a,b}
    ('{"places": ["s", "a,b", "a", "b", "e"],'
     ' "transitions": ["T0", "T1", "T2"],'
     ' "arcs": [["s", "T0"], ["T0", "a,b"], ["a,b", "T1"], ["T1", "a"],'
     ' ["T1", "b"], ["a", "T2"], ["b", "T2"], ["T2", "e"]]}',
     "PARSE_ERROR: place name contains ',': 'a,b'"),
    # a comma in a label would print the TTS {"x,y"} the same as {x, y}
    ('{"places": ["s", "m", "e"], "transitions": ["x,y", "x", "y"],'
     ' "arcs": [["s", "x,y"], ["x,y", "e"], ["s", "x"], ["x", "m"],'
     ' ["m", "y"], ["y", "e"]]}',
     "PARSE_ERROR: transition label contains ',': 'x,y'"),
    # a line break in a name would split a line of output in two
    (LINE_BREAK_LABEL,
     "PARSE_ERROR: transition label contains a line break: 'x\\ny'"),
    # ... also at the end of a name, where the whitespace rule would apply
    ('{"places": ["s", "x\\n", "e"], "transitions": ["t", "u"],'
     ' "arcs": [["s", "t"], ["t", "x\\n"], ["x\\n", "u"], ["u", "e"]]}',
     "PARSE_ERROR: place name contains a line break: 'x\\n'"),
    ('{"places": ["s", "e"], "transitions": ["\\r"],'
     ' "arcs": [["s", "\\r"], ["\\r", "e"]]}',
     "PARSE_ERROR: transition label contains a line break: '\\r'"),
    ('{"places": ["s", "\\u2028", "e"], "transitions": ["t", "u"],'
     ' "arcs": [["s", "t"], ["t", "\\u2028"], ["\\u2028", "u"],'
     ' ["u", "e"]]}',
     "PARSE_ERROR: place name contains a line break: '\\u2028'"),
    # a csv row joins the keys of its equivalents with ';': mapping s -t-> e
    # against this net would print the row {e},{e};{s},false
    (SEMICOLON,
     "PARSE_ERROR: place name contains ';': 'e};{s'"),
    # arcs name ids and places alike: m -> B would silently become A -> B
    ('{"places": ["s", "m", "e"],'
     ' "transitions": [{"id": "m", "label": "A"}, "B"],'
     ' "arcs": [["s", "m"], ["m", "B"], ["B", "e"]]}',
     "DUPLICATE_NAME: transition id 'm' is also a place name"),
    # arcs name transition ids: the label A is not an endpoint
    ('{"places": ["s", "e"], "transitions": [{"id": "t1", "label": "A"}],'
     ' "arcs": [["s", "A"], ["A", "e"]]}',
     "UNKNOWN_ENDPOINT: arc endpoint 'A' is not a declared place or "
     "transition"),
    # ... also when the arc it would name is listed by id as well
    ('{"places": ["s", "e"], "transitions": [{"id": "t1", "label": "A"}],'
     ' "arcs": [["s", "t1"], ["s", "A"], ["t1", "e"]]}',
     "UNKNOWN_ENDPOINT: arc endpoint 'A' is not a declared place or "
     "transition"),
    # a lone surrogate cannot be printed, in a place name or a label
    (SURROGATE, "PARSE_ERROR: place name does not encode as UTF-8: "
                "'\\ud800'"),
    ('{"places": ["s", "e"], "transitions": ["\\udc80"],'
     ' "arcs": [["s", "\\udc80"], ["\\udc80", "e"]]}',
     "PARSE_ERROR: transition label does not encode as UTF-8: '\\udc80'"),
    # --marking strips each name, so " m" could be listed but not queried
    (SPACED, "PARSE_ERROR: place name has leading or trailing whitespace: "
             "' m'"),
    # an arc listed twice is a weight of 2 spelled another way
    ('{"places": ["s", "e"], "transitions": ["t"],'
     ' "arcs": [["s", "t"], ["s", "t"], ["t", "e"]]}',
     "PARSE_ERROR: arc 's' -> 't' is listed twice (weighted arcs are not "
     "supported)"),
    # two tokens in s are not 1-bounded
    ('{"places": ["s", "e"], "transitions": ["t"],'
     ' "arcs": [["s", "t"], ["t", "e"]], "initial_marking": ["s", "s"]}',
     "PARSE_ERROR: initial marking lists place 's' twice (nets are "
     "1-bounded)"),
]


@pytest.mark.parametrize("text,error", PARSE_ERRORS, ids=[
    "%s-%s" % (text, error.split(":")[0]) for text, error in PARSE_ERRORS])
def test_parse_errors(text, error):
    """Each document has one fault, reported with its code and message."""
    with pytest.raises(NetFormatError) as err:
        parse_net(text)
    assert "%s: %s" % (err.value.code, err.value) == error


def _doc(places, transitions, arcs, **extra):
    return json.dumps(dict(places=places, transitions=transitions, arcs=arcs,
                           **extra))


SEQ = [["s", "t"], ["t", "e"]]
# Documents with two or more faults, each with the line reported for it, or
# None for the two that are nets.  The fault named is the first one met by
# reading the shape in document order (places, transitions, arcs, initial
# marking, name) and then the net rules: the initial marking, the names
# (places in order, then labels in sorted order), repeated arcs, then arcs
# in sorted order; where a rule meets several items, the smallest is named.
MULTI_FAULTS = [
    (_doc(["s", "e"], ["t", 3], [["s", "t"], ["t"]]),
     "PARSE_ERROR: transition entries must be strings or objects"),
    (_doc(["s", "", "e"], "t", SEQ),
     "PARSE_ERROR: 'transitions' must be a list"),
    (_doc(["s", "e"], [{"id": "t", "x": 1}, {"id": ""}], SEQ),
     "PARSE_ERROR: transition entry keys are id, label, empty"),
    (_doc(["s", "e"], ["t", "t", {"id": "u", "label": ""}], SEQ),
     "DUPLICATE_NAME: duplicate transition id 't'"),
    (_doc(["s", "e"], ["t"], [["s", "x"], ["a"], ["t", "e", 2]]),
     "UNKNOWN_ENDPOINT: arc endpoint 'x' is not a declared place or "
     "transition"),
    (_doc(["s", "e"], ["t"], SEQ, initial_marking="s", name=3),
     "PARSE_ERROR: 'initial_marking' must be a list of place names"),
    (_doc(["s", "m", "e"],
          [{"id": "m", "label": "A"}, {"id": "u", "empty": 1}], SEQ),
     "DUPLICATE_NAME: transition id 'm' is also a place name"),
    (_doc(["s", "a,b", "e"], ["t", "t"], SEQ),
     "DUPLICATE_NAME: duplicate transition id 't'"),
    (_doc([" s", "e"], ["t"], [[" s", "t"], ["t", "e"], ["t", "e"]]),
     "PARSE_ERROR: place name has leading or trailing whitespace: ' s'"),
    (_doc(["s", "e", "s"], ["t"], SEQ, initial_marking=["zzz"], name=[]),
     "PARSE_ERROR: 'name' must be a string"),
    (_doc(["s", " a", "x,y", "e"], ["t"], SEQ),
     "PARSE_ERROR: place name has leading or trailing whitespace: ' a'"),
    (_doc(["s", "x,y", " a", "e"], ["t"], SEQ),
     "PARSE_ERROR: place name contains ',': 'x,y'"),
    (_doc(["s", "\ud800", "e"], ["z,z", "y"], [["s", "y"], ["y", "e"]]),
     "PARSE_ERROR: place name does not encode as UTF-8: '\\ud800'"),
    (_doc(["s", "e"], ["z,z", "a\ud800"], [["s", "z,z"], ["z,z", "e"]]),
     "PARSE_ERROR: transition label does not encode as UTF-8: "
     "'a\\ud800'"),
    (_doc(["s", "t", "e"], ["t", "u,v"], SEQ),
     "DUPLICATE_NAME: duplicate name: 't'"),
    (_doc(["a", "a", "b,c"], ["t"], []),
     "DUPLICATE_NAME: duplicate place name: 'a'"),
    (_doc(["a", "b", "a"], ["b"], []),
     "DUPLICATE_NAME: duplicate place name: 'a'"),
    (_doc([" a", " a"], ["t"], []),
     "PARSE_ERROR: place name has leading or trailing whitespace: ' a'"),
    (_doc(["s", " m\n", "e", "e"], ["t", "z\r", "x,y"], SEQ),
     "PARSE_ERROR: place name contains a line break: ' m\\n'"),
    (_doc(["s", "e"], [{"id": "q", "label": "s"}, "x,y"],
          [["s", "q"], ["q", "e"]]),
     "DUPLICATE_NAME: duplicate name: 's'"),
    (_doc(["s", "e"], ["", "t"], SEQ),
     "PARSE_ERROR: transition id must be a non-empty string"),
    (_doc(["s", "a,b", "e"], ["t"], SEQ, initial_marking=["zzz", "yyy"]),
     "UNKNOWN_ENDPOINT: initial marking names unknown place 'yyy'"),
    (_doc(["s", "e"], ["t"], SEQ, initial_marking=["s", "s", "zzz"]),
     "UNKNOWN_ENDPOINT: initial marking names unknown place 'zzz'"),
    (_doc(["s", "e", "m"], ["t"], SEQ, initial_marking=["e", "s", "e", "s"]),
     "PARSE_ERROR: initial marking lists place 'e' twice (nets are "
     "1-bounded)"),
    (_doc(["s", "e,f"], ["t"], [["s", "e,f"], ["s", "e,f"]],
          initial_marking=["s", "s"]),
     "PARSE_ERROR: initial marking lists place 's' twice (nets are "
     "1-bounded)"),
    (_doc(["s", "e"], ["t"], [["s", "t"], ["t", "e"], ["s", "t"],
                              ["s", "e"], ["s", "e"]]),
     "PARSE_ERROR: arc 's' -> 'e' is listed twice (weighted arcs are not "
     "supported)"),
    (_doc(["s", "m", "e"], ["t", "u"], [["t", "u"], ["s", "e"], ["m", "e"],
                                        ["s", "t"]]),
     "NON_BIPARTITE_ARC: arc 'm' -> 'e' does not connect a place with a "
     "transition"),
    (_doc(["s", "e"], [{"id": "t1", "label": "A"}],
          [["s", "t1"], ["s", "e"], ["t1", "A"]]),
     "UNKNOWN_ENDPOINT: arc endpoint 'A' is not a declared place or "
     "transition"),
    (_doc(["s", "e"], ["t", "u"], [["u", "t"], ["e", "s"], ["s", "t"],
                                   ["t", "e"]]),
     "NON_BIPARTITE_ARC: arc 'e' -> 's' does not connect a place with a "
     "transition"),
    # a two-letter string or a two-key object unpacks like a pair
    (_doc(["s", "e", "a,b"], ["t"], [["s", "t"], "te"]),
     "PARSE_ERROR: arcs must be [from, to] name pairs (weighted arcs are not "
     "supported)"),
    (_doc(["s", "e"], ["t"], [["s", "t"], {"t": 1, "e": 2}, ["s", "t"]]),
     "PARSE_ERROR: arcs must be [from, to] name pairs (weighted arcs are not "
     "supported)"),
    (_doc(["s", 3], [{"id": "t", "label": 5}], [["s"]]),
     "PARSE_ERROR: place names must be non-empty strings"),
    (_doc(["s", "e"], [{"id": "t", "label": 5, "empty": "x"}], SEQ),
     "PARSE_ERROR: transition label must be a non-empty string"),
    (_doc(["s", "e"], [{"id": "t", "label": "s"}], [["s", "t"], ["t", "x"]]),
     "UNKNOWN_ENDPOINT: arc endpoint 'x' is not a declared place or "
     "transition"),
    (_doc(["s", "a,b", "e"],
          [{"id": "a", "label": "X"}, {"id": "b", "label": "X"}],
          [["s", "a"], ["a", "e"]]),
     "PARSE_ERROR: place name contains ',': 'a,b'"),
    # entry faults before and after an object entry, where the whole-list
    # check of the bare entries gives way to the ordered scan
    (_doc(["s", "e"], ["", {"id": "u", "x": 1}], SEQ),
     "PARSE_ERROR: transition id must be a non-empty string"),
    (_doc(["s", "e"], [{"id": "u", "label": "U"}, 5], SEQ),
     "PARSE_ERROR: transition entries must be strings or objects"),
    (_doc(["s", "e"], [{"id": "u", "empty": True}, "t", "t"], SEQ),
     "DUPLICATE_NAME: duplicate transition id 't'"),
    (_doc(["s", "e"], ["t", {"id": "t", "label": "T"}, 3], SEQ),
     "DUPLICATE_NAME: duplicate transition id 't'"),
    (_doc(["s", "e"], [{"id": "u", "empty": "no"}, ""], SEQ),
     "PARSE_ERROR: 'empty' must be a boolean"),
    (_doc(["s", "e"], ["t", "", {"id": "s", "label": "S"}], SEQ),
     "PARSE_ERROR: transition id must be a non-empty string"),
    (_doc(["s", "e"], [{"id": "s", "label": "S"}, ""], SEQ),
     "DUPLICATE_NAME: transition id 's' is also a place name"),
    (_doc(["s", "e"], [{"id": "u", "label": ""}, "t", "t"], SEQ),
     "PARSE_ERROR: transition label must be a non-empty string"),
    # ';' is checked right after ',' and only in place names
    (_doc(["s", "x;y,z", "e"], ["t"], SEQ),
     "PARSE_ERROR: place name contains ',': 'x;y,z'"),
    (_doc(["s", "a;b", "x,y", "e"], ["t"], SEQ),
     "PARSE_ERROR: place name contains ';': 'a;b'"),
    (_doc(["s", " a;b", "e"], ["t"], SEQ),
     "PARSE_ERROR: place name contains ';': ' a;b'"),
    (_doc(["s", "e"], ["t;u", "z,z"], [["s", "t;u"], ["t;u", "e"]]),
     "PARSE_ERROR: transition label contains ',': 'z,z'"),
    # an id that is another transition's label names its own transition
    (_doc(["s", "e"], [{"id": "a", "label": "b"}, {"id": "b", "label": "c"}],
          [["s", "b"], ["b", "e"], ["s", "a"], ["a", "e"]]), None),
    (_doc(["s", "e"], [{"id": "a", "label": "b", "empty": True}, "c"],
          [["s", "a"], ["a", "e"], ["s", "c"], ["c", "e"]],
          initial_marking=["s"], name="ok"), None),
]


def _outcome(text):
    """The ``CODE: message`` line ``parse_net`` raises, or the net with
    the fields its ``==`` leaves out."""
    try:
        net = parse_net(text)
    except NetFormatError as exc:
        return "%s: %s" % (exc.code, exc)
    return net, net.name, net.explicit_initial, net.empty_labels


def _scanned(text):
    """``_outcome`` with the whole-list checks skipped: the ordered scans of
    the transition entries, of the arcs and of the net rules read the
    document and name its fault."""
    def scanned_net(places, transitions, arcs, initial_marking=None,
                    name=""):
        labels = [t if isinstance(t, str) else t.label for t in transitions]
        scan_net_rules(places, sorted(labels), arcs,
                       list(initial_marking or ()))
        return WFNet(places, transitions, arcs, initial_marking, name)

    with mock.patch.object(netformat, "_entries", netformat._scan_entries), \
            mock.patch.object(netformat, "_resolve", netformat._scan), \
            mock.patch.object(netformat, "WFNet", scanned_net):
        return _outcome(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(net_documents())
@example(SURROGATE)
def test_whole_list_checks_agree_with_the_ordered_scan(text):
    assert _outcome(text) == _scanned(text)


def test_whole_list_checks_agree_on_every_fault_document():
    for text, line in PARSE_ERRORS + MULTI_FAULTS:
        got = _outcome(text)
        assert got == _scanned(text)
        if line is not None:
            assert got == line
    assert [got[1] for got in map(_outcome, [
        text for text, line in MULTI_FAULTS if line is None])] == ["", "ok"]


def test_reported_fault_is_the_same_under_every_hash_seed(tmp_path):
    """``wfmig validate`` on each multi-fault document, in one process per
    hash seed: stdout, stderr and the exit codes match byte for byte."""
    paths = []
    for i, (text, _) in enumerate(MULTI_FAULTS):
        paths.append(str(tmp_path / ("%d.json" % i)))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(text)
    script = ("import sys\n"
              "from wfmig.cli import main\n"
              "for path in sys.argv[1:]:\n"
              "    print(main(['validate', path]), flush=True)\n"
              "    print('--', file=sys.stderr, flush=True)\n")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=seed)
        runs.append(subprocess.run([sys.executable, "-c", script] + paths,
                                   capture_output=True, timeout=120, env=env))
    assert runs[0].returncode == 0
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout,
                                                runs[1].stderr)
    errors = runs[0].stderr.decode("utf-8").split("--\n")
    assert errors == ["%s\n" % line if line else ""
                      for _, line in MULTI_FAULTS] + [""]


def test_parse_error_reports_position():
    with pytest.raises(NetFormatError) as err:
        parse_net('{\n  "places": oops\n}')
    assert "line 2" in str(err.value)


def test_empty_transition_parsing():
    text = """{"places": ["a", "b"],
               "transitions": [{"id": "e1", "empty": true}],
               "arcs": [["a", "e1"], ["e1", "b"]]}"""
    net = parse_net(text)
    assert net.empty_labels == {"e1"}


def test_fig8_old_fixture_yields_13_markings():
    net = fixture_net("fig8_old")
    assert len(build_reachability(net).nodes) == 13


# ---------------------------------------------------------------------------
# CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", fx("sequence"))
    assert code == 0
    assert "structural: ok" in out
    assert "behavioral: ok" in out


def test_cli_validate_fig2b(capsys):
    code, out, err = run_cli(capsys, "validate", fx("fig2b"))
    assert code == 1
    assert "NOT_ON_PATH" in out


def test_cli_reach_counts_and_dot(capsys, tmp_path):
    dot_file = tmp_path / "g.dot"
    code, out, err = run_cli(capsys, "reach", fx("fig4"),
                             "--dot", str(dot_file))
    assert code == 0
    assert "nodes: 6" in out
    assert "edges: 7" in out
    assert dot_file.read_text().startswith("digraph reachability {")


def test_cli_reach_state_limit(capsys):
    code, out, err = run_cli(capsys, "reach", fx("sequence"),
                             "--max-states", "1")
    assert code == 1
    assert "STATE_LIMIT_EXCEEDED" in err


def test_cli_tts_fig4(capsys):
    code, out, err = run_cli(capsys, "tts", fx("fig4"), "--marking", "P2")
    assert code == 0
    assert out.splitlines() == [
        "{T0}",
        "{T0,T1,T2,T3,T4}",
        "{T0,T1,T2,T3,T4,T5,T6}",
        "{T0,T1,T4,T5,T6}",
    ]


def test_cli_tts_marking_is_order_and_space_insensitive(capsys):
    code1, out1, _ = run_cli(capsys, "tts", fx("fig8_old"),
                             "--marking", "p2, p6")
    code2, out2, _ = run_cli(capsys, "tts", fx("fig8_old"),
                             "--marking", "p6,p2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_tts_purges_by_default(capsys):
    code, out, _ = run_cli(capsys, "tts", fx("fig8_new"),
                           "--marking", "p13,p2")
    assert code == 0
    assert out.splitlines() == ["{T1}"]
    code, out, _ = run_cli(capsys, "tts", fx("fig8_new"),
                           "--marking", "p13,p2", "--keep-empty")
    assert out.splitlines() == ["{T1,e1}"]


def loops_net(k):
    """s -start-> m -end-> e, with k tasks a0, a1, ... from m back to m:
    the family of e is every subset of the tasks with start and end."""
    labels, arcs = ["start", "end"], [("s", "start"), ("start", "m"),
                                      ("m", "end"), ("end", "e")]
    for i in range(k):
        labels.append("a%d" % i)
        arcs += [("m", labels[-1]), (labels[-1], "m")]
    return WFNet(["s", "m", "e"], labels, arcs, name="loops-%d" % k)


def test_cli_tts_writes_what_a_print_per_line_wrote(capsys, tmp_path):
    """4,096 lines, more than one batch: the bytes of one ``print`` per
    sorted member."""
    net = loops_net(12)
    path = tmp_path / "loops-12.json"
    path.write_text(serialize_net(net), encoding="utf-8")
    graph = build_reachability(net)
    family = tts_all(graph, net.empty_labels)[graph.find({"e"})]
    printed = io.StringIO()
    for labels in sorted(mask_names(graph.labels, member)
                         for member in family):
        print(key_label(",".join(labels)), file=printed)
    code, out, err = run_cli(capsys, "tts", str(path), "--marking", "e")
    assert (code, err) == (0, "")
    assert out == printed.getvalue()
    assert out.count("\n") == 4096 and len(out) > cli.BATCH_CHARS


def test_cli_tts_fig8_golden(capsys):
    # every reachable marking of both fig8 nets, with and without
    # --keep-empty, as the CI job runs them through the installed script
    text = []
    for name in ("fig8_old", "fig8_new"):
        for key in sorted(build_reachability(fixture_net(name)).keys()):
            for flag in ([], ["--keep-empty"]):
                argv = ["tts", "%s.json" % name, "--marking", key] + flag
                code, out, err = run_cli(capsys, "tts", fx(name),
                                         *argv[2:])
                assert (code, err) == (0, ""), argv
                text.append("$ wfmig %s\n%s" % (" ".join(argv), out))
    assert "".join(text) == (GOLDEN / "fig8_tts.txt").read_text(
        encoding="utf-8")


def test_cli_goldens_pin_discovery_and_edge_order(capsys, tmp_path):
    # DOT text is sorted by key and shows no discovery order; validate
    # lists the markings that cannot complete in discovery order, here the
    # four deadlocks of a join after two mismatched choices.  fig8_old's
    # DOT holds 2-token markings and a join.  The CI job diffs the
    # installed script's output against the same goldens
    net = ROOT / "tests" / "nets" / "join_deadlock.json"
    assert run_cli(capsys, "validate", str(net)) == (
        1, (GOLDEN / "join_deadlock_validate.txt").read_text(
            encoding="utf-8"), "")
    dot = tmp_path / "fig8_old.dot"
    assert run_cli(capsys, "reach", fx("fig8_old"), "--dot", str(dot)) == (
        0, "nodes: 13\nedges: 15\ninitial: {p1}\nterminal: {p11}\n", "")
    assert dot.read_text(encoding="utf-8") == (
        GOLDEN / "fig8_old.dot").read_text(encoding="utf-8")


def test_cli_tts_closes_over_the_ancestors_of_the_marking_only(
        capsys, tmp_path):
    # the whole closure of this net does not fit in 700 MB; the initial
    # marking's only ancestor is itself
    path = tmp_path / "net.json"
    path.write_text(serialize_net(random_wfnet(GenParams(
        seed=1, max_places=24, max_transitions=36))), encoding="utf-8")
    assert run_cli(capsys, "tts", str(path), "--marking", "p0") == (
        0, "{}\n", "")


def test_cli_tts_unreachable_marking(capsys):
    for marking, shown in [
            ("p1,p3", "p1,p3"),     # places of the net, never marked together
            ("p3, p1", "p1,p3"),
            ("zz", "zz"),           # a place the net lacks
            ("p2,zz", "p2,zz"),
            (",", "")]:             # the empty marking
        code, out, err = run_cli(capsys, "tts", fx("sequence"),
                                 "--marking", marking)
        assert code == 1
        assert out == ""
        assert err == ("UNREACHABLE_MARKING: marking {%s} is not "
                       "reachable\n" % shown)


def test_cli_map_csv(capsys):
    code, out, err = run_cli(capsys, "map", "--old", fx("fig8_old"),
                             "--new", fx("fig8_new"), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["old_marking", "equivalents", "change_region"]
    body = {r[0]: (r[1], r[2]) for r in rows[1:]}
    assert len(body) == 13
    assert body["{p1}"] == ("{p1};{p12,p2}", "false")
    assert body["{p3,p6}"] == ("{p13,p3};{p4,p6}", "false")
    assert body["{p8}"] == ("", "true")


def test_cli_map_formats_agree(capsys):
    _, out_json, _ = run_cli(capsys, "map", "--old", fx("fig8_old"),
                             "--new", fx("fig8_new"), "--format", "json")
    doc = json.loads(out_json)
    assert doc["old_net"] == "fig8_old"
    assert doc["new_net"] == "fig8_new"
    _, out_csv, _ = run_cli(capsys, "map", "--old", fx("fig8_old"),
                            "--new", fx("fig8_new"), "--format", "csv")
    _, out_table, _ = run_cli(capsys, "map", "--old", fx("fig8_old"),
                              "--new", fx("fig8_new"), "--format", "table")
    csv_rows = list(csv.reader(io.StringIO(out_csv)))[1:]
    assert len(csv_rows) == len(doc["rows"])
    assert len(out_table.splitlines()) == len(doc["rows"]) + 1
    for row, csv_row in zip(doc["rows"], csv_rows):
        marking = "{%s}" % ",".join(row["old_marking"])
        assert csv_row[0] == marking
        assert (csv_row[2] == "true") == row["change_region"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cli_map_golden_bytes(capsys, fmt):
    code, out, err = run_cli(capsys, "map", "--old", fx("fig8_old"),
                             "--new", fx("fig8_new"), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / ("fig8_map.%s" % fmt)).read_text(encoding="utf-8")


def test_cli_map_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "map", "--old", fx("fig8_old"),
                         "--new", fx("fig8_new"))
    assert code == 0
    code, _, _ = run_cli(capsys, "map", "--old", fx("fig8_old"),
                         "--new", fx("fig8_new"), "--fail-on-change-region")
    assert code == 1
    code, _, _ = run_cli(capsys, "map", "--old", fx("sequence"),
                         "--new", fx("sequence"), "--fail-on-change-region")
    assert code == 0


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, "unknown-command")[0] == 2
    assert run_cli(capsys, "tts", fx("sequence"))[0] == 2  # missing --marking
    code, out, err = run_cli(capsys, "validate", "/does/not/exist.json")
    assert code == 2
    assert "PARSE_ERROR" in err


def test_cli_reused_parser_prints_what_a_fresh_one_does(capsys):
    """main() keeps the parser once built; no call, usage errors included,
    may leave state that changes a later call."""
    fig8 = ("--old", fx("fig8_old"), "--new", fx("fig8_new"))
    runs = [("unknown-command",), ("tts", fx("sequence")),
            ("map",) + fig8 + ("--format", "csv"), ("map",) + fig8,
            ("tts", fx("fig8_new"), "--marking", "p15", "--keep-empty"),
            ("tts", fx("fig8_new"), "--marking", "p15"),
            ("validate", fx("sequence"), "--max-states", "1"),
            ("validate", fx("sequence")),
            ("unknown-command",), ("tts", fx("sequence"))]
    fresh = []
    for argv in runs:
        cli._parsers.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    reused = [run_cli(capsys, *argv) for argv in runs]
    reused += [run_cli(capsys, *argv) for argv in runs]
    assert reused == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 2, 0, 0, 0, 0, 1, 0, 2, 2]
    assert fresh[4][1] != fresh[5][1]  # --keep-empty did not stick


# the words of the parse corpus: every argv of up to three of them
PARSE_UNITS = [(name,) for name in ("validate", "reach", "tts", "map",
                                    "gen-net")] + [
    ("--old", fx("fig8_old")), ("--new", fx("fig8_new")), ("--",), ("-h",),
    ("--ol",), ("--old=" + fx("fig8_old"),), ("-x",), ("--max-states", "0"),
    ("--format", "json"), ("stray",), (fx("sequence"),)]


def test_cli_parses_a_command_as_the_whole_parser_does(capsys, monkeypatch,
                                                       tmp_path):
    """main parses an argv that starts with a command name with that
    command's parser alone.  On every argv of up to three corpus units,
    every bad-argument row and every --help, it returns and prints what
    parsing with the whole parser does: argparse's handling of ``--`` and
    of abbreviations differs between Python versions."""
    for name, data in BAD_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    argvs = [[word for unit in units for word in unit]
             for k in range(4)
             for units in itertools.product(PARSE_UNITS, repeat=k)]
    argvs += [[word.replace("{tmp}", str(tmp_path)) for word in argv]
              for argv, _ in BAD_ARGUMENTS]
    for flag in ("-h", "--help"):
        argvs += [[flag]] + [[name, flag] for name in cli._COMMANDS]
    alone = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli._parsers()[0].parse_args(argv))
    whole = [run_cli(capsys, *argv) for argv in argvs]
    assert [argv for argv, a, w in zip(argvs, alone, whole) if a != w] == []


def test_cli_parse_error_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "PARSE_ERROR" in err


NET_LINES = [b'{"places": ["s", "e"],', b' "transitions": ["t"],',
             b' "arcs": [["s", "t"], ["t", "e"]]}']
# file name -> bytes, for _load_net against a text-mode read
LOAD_FILES = {
    "crlf.json": b"\r\n".join(NET_LINES) + b"\r\n",
    "cr.json": b"\r".join(NET_LINES) + b"\r",
    "mixed.json": NET_LINES[0] + b"\r\n" + NET_LINES[1] + b"\r\r\n\n\r"
                  + NET_LINES[2] + b"\n",
    "crlf-in-a-name.json": b'{"places": ["s\r\ne"], "transitions": [],'
                           b' "arcs": []}',
    "bom.json": b"\xef\xbb\xbf" + b"\n".join(NET_LINES),
    "empty.json": b"",
    "bad-utf-8-first.json": b"\xff" + b"\n".join(NET_LINES),
    "bad-utf-8-late.json": b'{"places": ["' + b"x" * 9000 + b'\xe9 s"]}',
    "truncated-utf-8.json": b"\n".join(NET_LINES) + b"\xe2\x82",
    "crlf-syntax-error.json": b'{"places": ["s", "e"],\r\n'
                              b' "transitions": ["t"],\r\n "arcs": [,]}\r\n',
}


def _text_mode_load(path):
    """The reference for _load_net: the file read in text mode."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise NetFormatError("cannot read %s: %s" % (path, reason),
                             code="PARSE_ERROR") from exc
    return netformat.parse_net(text)


def _load_outcome(load, path):
    """The net as its document text, or the coded error line."""
    try:
        return serialize_net(load(path))
    except NetFormatError as exc:
        return "%s: %s" % (exc.code, exc)


@pytest.mark.parametrize("name", [*LOAD_FILES, "directory", "missing"])
def test_load_net_reads_what_a_text_mode_read_does(tmp_path, monkeypatch,
                                                   name):
    """The file is read as bytes and decoded once; the text parse_net gets,
    the net it makes and every error line are those of a text-mode read."""
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif name != "missing":
        path.write_bytes(LOAD_FILES[name])
    path = str(path)
    read = _load_outcome(_text_mode_load, path)
    assert _load_outcome(cli._load_net, path) == read
    with monkeypatch.context() as patch:
        patch.setattr(netformat, "parse_net", lambda text: text)
        try:
            assert cli._load_net(path) == _text_mode_load(path)
        except NetFormatError:      # both fail, with one line, as above
            assert read.startswith("PARSE_ERROR: cannot read ")


def test_load_net_keeps_the_line_and_column_after_crlf(tmp_path):
    path = tmp_path / "crlf-syntax-error.json"
    path.write_bytes(LOAD_FILES["crlf-syntax-error.json"])
    assert _load_outcome(cli._load_net, str(path)) == (
        "PARSE_ERROR: line 3 column 11: Expecting value")


def test_cli_line_break_in_a_name_is_one_parse_error_line(capsys, tmp_path):
    path = tmp_path / "line-break.json"
    path.write_text(LINE_BREAK_LABEL, encoding="utf-8")
    for argv in [("tts", str(path), "--marking", "e"),
                 ("map", "--old", str(path), "--new", str(path)),
                 ("validate", str(path))]:
        assert run_cli(capsys, *argv) == (
            2, "", "PARSE_ERROR: transition label contains a line break: "
                   "'x\\ny'\n"), argv


def test_cli_semicolon_in_a_place_name_is_one_parse_error_line(capsys,
                                                              tmp_path):
    path = tmp_path / "semicolon.json"
    path.write_text(SEMICOLON, encoding="utf-8")
    for argv in [("map", "--old", fx("sequence"), "--new", str(path),
                  "--format", "csv"),
                 ("validate", str(path))]:
        assert run_cli(capsys, *argv) == (
            2, "", "PARSE_ERROR: place name contains ';': 'e};{s'\n"), argv


def test_cli_hidden_gen_net_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gen-net", "--seed", "5")
    assert code == 0
    net = parse_net(out)
    assert serialize_net(net) == out


def test_gen_net_text_survives_a_parse_byte_for_byte(capsys):
    """``gen-net`` output is canonical text: parsing it and writing the net
    back gives the same bytes, over many seeds and sizes."""
    for seed in range(30):
        for size in (["--max-places", "8", "--max-transitions", "10"],
                     ["--max-places", "24", "--max-transitions", "36",
                      "--loop-probability", "0.5"]):
            code, out, err = run_cli(capsys, "gen-net", "--seed", str(seed),
                                     *size)
            assert (code, err) == (0, "")
            assert serialize_net(parse_net(out)) == out


def test_cli_tts_agrees_with_the_oracle(capsys):
    code, out, err = run_cli(capsys, "tts", fx("fig4"), "--marking", "P2")
    graph = build_reachability(fixture_net("fig4"))
    family = oracle_tts(graph, graph.keys().index("P2"))
    assert (code, err) == (0, "")
    assert out == "".join("{%s}\n" % ",".join(member)
                          for member in sorted(sorted(m) for m in family))


def test_cli_map_and_tts_on_a_deep_sequence(capsys, tmp_path):
    path = tmp_path / "sequence-1200.json"
    path.write_text(serialize_net(long_sequence_net(1200)))
    code, out, _ = run_cli(capsys, "map", "--old", str(path),
                           "--new", str(path), "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1201
    code, out, _ = run_cli(capsys, "tts", str(path), "--marking", "p1200")
    assert code == 0
    assert out == "{%s}\n" % ",".join(sorted("T%d" % i
                                               for i in range(1, 1201)))


def test_cli_tts_limit_is_one_coded_line(capsys, tmp_path):
    """The generator net of seed 18 at 24 places and 36 transitions has
    about 1.7e8 TTSs: at a small --max-tts-states, map and tts of its sink
    print one coded line and exit 1.  The initial marking p0 has no ancestor but itself, so its closure
    holds one state and fits in a limit of 1."""
    path = tmp_path / "seed-18.json"
    path.write_text(serialize_net(random_wfnet(GenParams(
        seed=18, max_places=24, max_transitions=36))), encoding="utf-8")
    for argv in [("map", "--old", str(path), "--new", str(path)),
                 ("tts", str(path), "--marking", "p1")]:
        assert run_cli(capsys, *argv, "--max-tts-states", "1000") == (
            1, "", "TTS_LIMIT_EXCEEDED: TTS closure exceeds 1000 states\n")
    assert run_cli(capsys, "tts", str(path), "--marking", "p0",
                   "--max-tts-states", "1") == (0, "{}\n", "")


def test_main_turns_the_collector_off_for_the_call_only(capsys,
                                                      monkeypatch):
    during = []
    run = cli._run
    monkeypatch.setattr(cli, "_run",
                        lambda argv: during.append(gc.isenabled())
                        or run(argv))
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_cli(capsys, "validate", fx("sequence"))[0] == 0
            assert run_cli(capsys, "validate", "missing.json")[0] == 2
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False] * 4


def test_commands_leave_no_reference_cycles(capsys, tmp_path):
    """``main`` runs a command with the cyclic collector off, so what a
    command allocates, on success and on a coded error, must be freed by
    reference counting alone.  (A usage error leaves a few objects of
    argparse's in a cycle, for the collector to free once it is back on.)"""
    fig8 = ["--old", fx("fig8_old"), "--new", fx("fig8_new")]
    argvs = [["map", *fig8, "--format", fmt] for fmt in ("table", "json",
                                                        "csv")]
    argvs += [["map", *fig8, "--max-tts-states", "2"],
              ["validate", fx("fig4")],
              ["validate", "missing.json"],
              ["reach", fx("fig4"), "--dot", str(tmp_path / "fig4.dot")],
              ["tts", fx("fig4"), "--marking", "P2"],
              ["tts", fx("fig4"), "--marking", "nowhere"]]
    for argv in argvs:      # imports, the shared parser and caches first
        run_cli(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            run_cli(capsys, *argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_cli_map_against_a_renamed_task_finishes_under_the_default_limit(
        capsys, tmp_path):
    """The generator net of seed 1 at 24 places and 36 transitions has
    about 7.5e6 TTSs, past the default --max-tts-states.  Against a copy
    with T15 renamed UT15, map's closures follow no trace that fires T15
    or UT15, keep 43,465 states each, and finish."""
    net = random_wfnet(GenParams(seed=1, max_places=24, max_transitions=36))

    def rename(name):
        return "UT15" if name == "T15" else name

    renamed = WFNet(net.places,
                    [Transition(rename(t.label), t.is_empty)
                     for t in net.transitions],
                    [(rename(a), rename(b)) for a, b in net.arcs],
                    net.initial_marking, name=net.name)
    old, new = tmp_path / "seed-1.json", tmp_path / "seed-1-UT15.json"
    old.write_text(serialize_net(net), encoding="utf-8")
    new.write_text(serialize_net(renamed), encoding="utf-8")
    code, out, err = run_cli(capsys, "map", "--old", str(old),
                             "--new", str(new), "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == len(build_reachability(net).nodes)
    assert sum(change == "true" for _, _, change in rows) == 6


def spawn_cli(tmp_path, python, argv, stdout):
    """Run ``python -m wfmig.cli`` with stdout block-buffered unless
    ``python`` holds ``-u``, as in a shell pipeline or redirection, so that
    small output is still unwritten when the command returns.  ``{tmp}``
    in ``argv`` names ``tmp_path``, which holds par-redo-3-6.json,
    sequence-1200.json and helpers-100.json, a sequence of 100 empty
    helpers whose map against itself lists every marking in every row, and
    loops-12.json, whose ``tts --marking e`` prints 4,096 lines."""
    (tmp_path / "par-redo-3-6.json").write_text(
        serialize_net(par_redo_net(3, 6)), encoding="utf-8")
    (tmp_path / "sequence-1200.json").write_text(
        serialize_net(long_sequence_net(1200)), encoding="utf-8")
    (tmp_path / "helpers-100.json").write_text(serialize_net(
        with_empty_transitions(long_sequence_net(100), 0, share=1)),
        encoding="utf-8")
    (tmp_path / "loops-12.json").write_text(serialize_net(loops_net(12)),
                                            encoding="utf-8")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *python, "-m", "wfmig.cli"]
                          + argv, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120, env=env)


@pytest.mark.parametrize("python,argv", [
    ((), ("map", "--old", fx("fig8_old"), "--new", fx("fig8_new"),
          "--format", "json")),
    ((), ("tts", "{tmp}/par-redo-3-6.json", "--marking", "e")),
    # more than stdout's buffer holds: the write fails, not the flush
    ((), ("map", "--old", "{tmp}/sequence-1200.json",
          "--new", "{tmp}/sequence-1200.json", "--format", "csv")),
    ((), ("tts", "{tmp}/loops-12.json", "--marking", "e")),
    ((), ("--help",)),
    # unbuffered, argparse's own write of the help text is the one to fail
    (("-u",), ("--help",)),
], ids=["map-small", "tts-small", "map-large", "tts-large", "help",
        "help-unbuffered"])
def test_cli_closed_stdout_exits_2_with_one_write_error_line(tmp_path, python,
                                                             argv):
    """stdout is a pipe whose read end is closed before the spawn, as in
    ``wfmig map ... | true``: one coded line, exit 2, and no traceback,
    also none from the interpreter's last flush of stdout."""
    read, write = os.pipe()
    os.close(read)
    try:
        run = spawn_cli(tmp_path, python, argv, write)
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr == b"WRITE_ERROR: cannot write stdout: Broken pipe\n"


FULL_STDOUT = [
    ((), ("map", "--old", fx("fig8_old"), "--new", fx("fig8_new"),
          "--format", "json")),
    # about 300 kB, several batches: a write in the middle of the command
    # fails
    ((), ("map", "--old", "{tmp}/helpers-100.json",
          "--new", "{tmp}/helpers-100.json", "--format", "json")),
    ((), ("validate", fx("fig8_old"))),
    ((), ("reach", fx("fig4"))),
    ((), ("tts", "{tmp}/par-redo-3-6.json", "--marking", "e")),
    ((), ("tts", "{tmp}/loops-12.json", "--marking", "e")),
    ((), ("gen-net", "--seed", "3")),
    ((), ("--help",)),
    (("-u",), ("--help",)),
    (("-u",), ("map", "--old", fx("fig8_old"), "--new", fx("fig8_new"))),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("python,argv", FULL_STDOUT,
                         ids=["map-small", "map-large", "validate", "reach",
                              "tts", "tts-large", "gen-net", "help",
                              "help-unbuffered", "map-unbuffered"])
def test_cli_full_stdout_exits_2_with_one_write_error_line(tmp_path, python,
                                                           argv):
    """stdout is /dev/full, where every write fails with ENOSPC: one coded
    line, exit 2, and no traceback, also none from the interpreter's last
    flush of stdout."""
    with open("/dev/full", "wb") as full:
        run = spawn_cli(tmp_path, python, argv, full)
    assert run.returncode == 2
    assert run.stderr == (b"WRITE_ERROR: cannot write stdout: "
                          b"No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("net", [fx("fig4"), "{tmp}/sequence-1200.json"],
                         ids=["fig4", "sequence-1200"])
def test_cli_full_dot_file_exits_2_with_one_write_error_line(tmp_path, net):
    """A --dot file that fails as its batches are written, in the first
    batch or in a later one: one line naming the file, exit 2, and nothing
    on stdout."""
    run = spawn_cli(tmp_path, (), ["reach", net, "--dot", "/dev/full"],
                    subprocess.PIPE)
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == (b"WRITE_ERROR: cannot write /dev/full: "
                          b"No space left on device\n")


def test_cli_closed_stdout_in_process_reports_the_same_line(
        capsys, monkeypatch):
    """A caller's own stdout stream that fails: the same line, and main
    asks it for no file descriptor."""
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            raise AssertionError("fileno() called")

    monkeypatch.setattr(sys, "stdout", Closed())
    code = main(["tts", fx("fig4"), "--marking", "P2"])
    assert (code, capsys.readouterr().err) == (
        2, "WRITE_ERROR: cannot write stdout: Broken pipe\n")


def test_cli_output_is_deterministic(capsys):
    commands = [
        ("validate", fx("sequence")),
        ("reach", fx("fig6")),
        ("tts", fx("fig4"), "--marking", "P2"),
        ("map", "--old", fx("fig8_old"), "--new", fx("fig8_new"),
         "--format", "json"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


BAD_INPUTS = {
    "latin1.json": '{"name": "caf\xe9"}'.encode("latin-1"),
    "deep.json": b"[" * 100000,
    "collision.json": b'{"places": ["s", "m", "e"], "transitions":'
                      b' [{"id": "m", "label": "A"}, "B"],'
                      b' "arcs": [["s", "m"], ["m", "B"], ["B", "e"]]}',
    "surrogate.json": SURROGATE.encode("ascii"),
    "spaced.json": SPACED.encode("ascii"),
    "repeated-arc.json": b'{"places": ["s", "e"], "transitions": ["t"],'
                         b' "arcs": [["s", "t"], ["s", "t"], ["t", "e"]]}',
    "long-int.json": LONG_INT.encode("ascii"),
}


# (argv, the last stderr line): each a usage error or a net file that
# cannot be read, parsed or written, with exit 2
BAD_ARGUMENTS = [
    (("validate", fx("sequence"), "--max-states", "0"),
     "wfmig validate: error: argument --max-states: must be at least 1: '0'"),
    (("reach", fx("sequence"), "--max-states", "-2"),
     "wfmig reach: error: argument --max-states: must be at least 1: '-2'"),
    (("tts", fx("sequence"), "--marking", "p2", "--max-states", "0"),
     "wfmig tts: error: argument --max-states: must be at least 1: '0'"),
    (("map", "--old", fx("sequence"), "--new", fx("sequence"),
      "--max-states", "0"),
     "wfmig map: error: argument --max-states: must be at least 1: '0'"),
    (("map", "--old", fx("sequence"), "--new", fx("sequence"),
      "--max-tts-states", "0"),
     "wfmig map: error: argument --max-tts-states: must be at least 1: "
     "'0'"),
    (("tts", fx("sequence"), "--marking", "p2", "--max-tts-states", "x"),
     "wfmig tts: error: argument --max-tts-states: invalid int value: 'x'"),
    # the reference oracle is not a command
    (("oracle-tts", fx("fig4"), "--marking", "P2"),
     "wfmig: error: argument {validate,reach,tts,map}: invalid choice: "
     "'oracle-tts' (choose from 'validate', 'reach', 'tts', 'map', "
     "'gen-net')"),
    (("gen-net", "--max-places", "1"),
     "wfmig gen-net: error: argument --max-places: must be at least 2: '1'"),
    (("gen-net", "--max-transitions", "0"),
     "wfmig gen-net: error: argument --max-transitions: must be at least 1: "
     "'0'"),
    (("validate", "{tmp}/latin1.json"),
     "PARSE_ERROR: cannot read {tmp}/latin1.json: 'utf-8' codec can't "
     "decode byte 0xe9 in position 13: invalid continuation byte"),
    (("reach", fx("fig4"), "--dot", "{tmp}/missing/g.dot"),
     "WRITE_ERROR: cannot write {tmp}/missing/g.dot: No such file or "
     "directory"),
    (("validate", "{tmp}/deep.json"),
     "PARSE_ERROR: values nested too deeply"),
    (("map", "--old", "{tmp}/collision.json", "--new", fx("sequence")),
     "DUPLICATE_NAME: transition id 'm' is also a place name"),
    (("validate", "{tmp}/surrogate.json"),
     "PARSE_ERROR: place name does not encode as UTF-8: '\\ud800'"),
    (("tts", "{tmp}/spaced.json", "--marking", " m"),
     "PARSE_ERROR: place name has leading or trailing whitespace: ' m'"),
    (("map", "--old", fx("sequence"), "--new", "{tmp}/repeated-arc.json"),
     "PARSE_ERROR: arc 's' -> 't' is listed twice (weighted arcs are not "
     "supported)"),
    (("validate", "{tmp}/long-int.json"),
     "PARSE_ERROR: integer with more than 4300 digits"),
    (("map", "--old", "{tmp}/long-int.json", "--new", fx("sequence")),
     "PARSE_ERROR: integer with more than 4300 digits"),
    # an unset shell variable: an empty path is a path, not "no --dot"
    (("reach", fx("fig4"), "--dot", ""),
     "WRITE_ERROR: cannot write : No such file or directory"),
    (("gen-net", "--loop-probability", "5"),
     "wfmig gen-net: error: argument --loop-probability: must be in [0, 1]: "
     "'5'"),
    (("gen-net", "--loop-probability", "-1"),
     "wfmig gen-net: error: argument --loop-probability: must be in [0, 1]: "
     "'-1'"),
    (("gen-net", "--loop-probability", "inf"),
     "wfmig gen-net: error: argument --loop-probability: must be in [0, 1]: "
     "'inf'"),
    (("gen-net", "--loop-probability", "nan"),
     "wfmig gen-net: error: argument --loop-probability: must be in [0, 1]: "
     "'nan'"),
    (("gen-net", "--parallel-probability", "5"),
     "wfmig gen-net: error: argument --parallel-probability: must be in "
     "[0, 1]: '5'"),
    (("gen-net", "--parallel-probability", "nan"),
     "wfmig gen-net: error: argument --parallel-probability: must be in "
     "[0, 1]: 'nan'"),
    (("gen-net", "--parallel-probability", "x"),
     "wfmig gen-net: error: argument --parallel-probability: invalid float "
     "value: 'x'"),
]
BAD_ARGUMENT_IDS = [
    "validate-max-states-0", "reach-max-states-negative", "tts-max-states-0",
    "map-max-states-0", "map-max-tts-states-0",
    "tts-max-tts-states-not-an-int", "oracle-tts-not-a-command",
    "gen-net-max-places-1", "gen-net-max-transitions-0", "not-utf-8",
    "dot-unwritable", "deep-nesting", "id-is-a-place", "lone-surrogate",
    "place-name-whitespace", "repeated-arc", "validate-long-integer",
    "map-long-integer", "dot-empty-path", "gen-net-loop-probability-5",
    "gen-net-loop-probability-negative", "gen-net-loop-probability-inf",
    "gen-net-loop-probability-nan", "gen-net-parallel-probability-5",
    "gen-net-parallel-probability-nan",
    "gen-net-parallel-probability-not-a-float"]


@pytest.mark.parametrize("argv,err", BAD_ARGUMENTS, ids=BAD_ARGUMENT_IDS)
def test_cli_bad_arguments_and_files_exit_2_with_a_coded_line(
        capsys, tmp_path, argv, err):
    """Each call returns exit 2 with one diagnostic line last on stderr and
    prints nothing to stdout; none raises out of main."""
    for name, data in BAD_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, got = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert got.splitlines()[-1] == err.replace("{tmp}", str(tmp_path))
    assert "Traceback" not in got


# argv text that a coded line echoes: a line break in it is written as its
# escape, and a NUL in a path is the command's coded error
ECHOED_ARGUMENTS = [
    (("tts", fx("sequence"), "--marking", "p1\nzz"), 1,
     r"UNREACHABLE_MARKING: marking {p1\nzz} is not reachable"),
    (("validate", "{tmp}/no\nsuch.json"), 2,
     r"PARSE_ERROR: cannot read {tmp}/no\nsuch.json: No such file or "
     "directory"),
    (("reach", fx("sequence"), "--dot", "{tmp}/no/a\nb.dot"), 2,
     r"WRITE_ERROR: cannot write {tmp}/no/a\nb.dot: No such file or "
     "directory"),
    (("validate", "a\0b"), 2, "PARSE_ERROR: cannot read a\0b: embedded null "
                              "byte"),
    (("reach", fx("sequence"), "--dot", "a\0b"), 2,
     "WRITE_ERROR: cannot write a\0b: embedded null byte"),
]


@pytest.mark.parametrize("argv,code,err", ECHOED_ARGUMENTS,
                         ids=["tts-marking-newline", "validate-newline",
                              "dot-newline", "validate-nul", "dot-nul"])
def test_cli_a_coded_line_echoing_argv_text_is_one_line(capsys, tmp_path,
                                                       argv, code, err):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run_cli(capsys, *argv) == (
        code, "", err.replace("{tmp}", str(tmp_path)) + "\n")


def test_cli_escapes_every_character_that_breaks_a_line():
    """The escape table holds exactly the characters str.splitlines breaks
    at, and leaves the line it is applied to one line."""
    breaks = [c for c in map(chr, range(sys.maxunicode + 1))
              if len(("a%sb" % c).splitlines()) == 2]
    assert sorted(cli.LINE_BREAK_ESCAPES) == [ord(c) for c in breaks]
    escaped = "".join(breaks).translate(cli.LINE_BREAK_ESCAPES)
    assert escaped.splitlines() == [escaped]
    assert escaped == "".join(repr(c)[1:-1] for c in breaks)
