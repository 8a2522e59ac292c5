import csv
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from wfmig import (GenParams, NetFormatError, Transition, WFNet,
                   build_reachability, parse_net, random_wfnet,
                   serialize_net, to_dot)
from wfmig import cli
from wfmig.cli import main

from conftest import (FIXTURE_NAMES, GOLDEN, SURROGATE, fixture_net,
                      fixture_path as fx, long_sequence_net,
                      with_empty_transitions)

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
    quoted = [[re.sub(r"\\(.)", r"\1", q) for q in QUOTED.findall(line)]
              for line in lines]
    assert quoted == (
        [["{%s}" % key] for key in sorted(graph.nodes)]
        + [["{%s}" % src, "{%s}" % dst, label]
           for src, label, dst in sorted(graph.edges)])


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


@pytest.mark.parametrize("text,code", [
    ("{not json", "PARSE_ERROR"),
    ('{"places": ["a"], "transitions": [], "arcs": [], "extra": 1}',
     "PARSE_ERROR"),
    ('{"places": ["a", "b"], "transitions": [], "arcs": [["a", "b"]]}',
     "NON_BIPARTITE_ARC"),
    ('{"places": ["a"], "transitions": ["t"], "arcs": [["a", "x"]]}',
     "UNKNOWN_ENDPOINT"),
    ('{"places": ["a", "a"], "transitions": [], "arcs": []}',
     "DUPLICATE_NAME"),
    ('{"places": ["a"], "transitions": ["t", "t"], "arcs": []}',
     "DUPLICATE_NAME"),
    ('{"places": ["a", "b"], "transitions": ["t"],'
     ' "arcs": [["a", "t", 2]]}', "PARSE_ERROR"),  # weighted arc
    ('{"places": ["a"], "transitions": ["t"], "arcs": [],'
     ' "initial_marking": ["zzz"]}', "UNKNOWN_ENDPOINT"),
    # a comma in a place name would collide with the marking key {a,b}
    ('{"places": ["s", "a,b", "a", "b", "e"],'
     ' "transitions": ["T0", "T1", "T2"],'
     ' "arcs": [["s", "T0"], ["T0", "a,b"], ["a,b", "T1"], ["T1", "a"],'
     ' ["T1", "b"], ["a", "T2"], ["b", "T2"], ["T2", "e"]]}', "PARSE_ERROR"),
    # a comma in a label would print the TTS {"x,y"} the same as {x, y}
    ('{"places": ["s", "m", "e"], "transitions": ["x,y", "x", "y"],'
     ' "arcs": [["s", "x,y"], ["x,y", "e"], ["s", "x"], ["x", "m"],'
     ' ["m", "y"], ["y", "e"]]}', "PARSE_ERROR"),
    # arcs name ids and places alike: m -> B would silently become A -> B
    ('{"places": ["s", "m", "e"],'
     ' "transitions": [{"id": "m", "label": "A"}, "B"],'
     ' "arcs": [["s", "m"], ["m", "B"], ["B", "e"]]}', "DUPLICATE_NAME"),
    # arcs name transition ids: the label A is not an endpoint
    ('{"places": ["s", "e"], "transitions": [{"id": "t1", "label": "A"}],'
     ' "arcs": [["s", "A"], ["A", "e"]]}', "UNKNOWN_ENDPOINT"),
    # a lone surrogate cannot be printed, in a place name or a label
    (SURROGATE, "PARSE_ERROR"),
    ('{"places": ["s", "e"], "transitions": ["\\udc80"],'
     ' "arcs": [["s", "\\udc80"], ["\\udc80", "e"]]}', "PARSE_ERROR"),
    # --marking strips each name, so " m" could be listed but not queried
    (SPACED, "PARSE_ERROR"),
    # an arc listed twice is a weight of 2 spelled another way
    ('{"places": ["s", "e"], "transitions": ["t"],'
     ' "arcs": [["s", "t"], ["s", "t"], ["t", "e"]]}', "PARSE_ERROR"),
    # two tokens in s are not 1-bounded
    ('{"places": ["s", "e"], "transitions": ["t"],'
     ' "arcs": [["s", "t"], ["t", "e"]], "initial_marking": ["s", "s"]}',
     "PARSE_ERROR"),
])
def test_parse_errors(text, code):
    with pytest.raises(NetFormatError) as err:
        parse_net(text)
    assert err.value.code == code


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


def test_cli_tts_unreachable_marking(capsys):
    for command in ("tts", "oracle-tts"):
        code, out, err = run_cli(capsys, command, fx("sequence"),
                                 "--marking", "p1,p3")
        assert code == 1
        assert out == ""
        assert err == ("UNREACHABLE_MARKING: marking {p1,p3} is not "
                       "reachable\n")


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
    """main() keeps one parser per process; no call, usage errors included,
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
        cli._shared_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    reused = [run_cli(capsys, *argv) for argv in runs]
    reused += [run_cli(capsys, *argv) for argv in runs]
    assert reused == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 2, 0, 0, 0, 0, 1, 0, 2, 2]
    assert fresh[4][1] != fresh[5][1]  # --keep-empty did not stick


def test_cli_parse_error_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "PARSE_ERROR" in err


def test_cli_hidden_gen_net_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gen-net", "--seed", "5")
    assert code == 0
    net = parse_net(out)
    assert serialize_net(net) == out


def test_cli_hidden_oracle_tts_agrees_with_tts(capsys):
    _, fast, _ = run_cli(capsys, "tts", fx("fig4"), "--marking", "P2")
    _, brute, _ = run_cli(capsys, "oracle-tts", fx("fig4"),
                          "--marking", "P2")
    assert fast == brute


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
}


@pytest.mark.parametrize("argv,err", [
    (("validate", fx("sequence"), "--max-states", "0"),
     "wfmig validate: error: argument --max-states: must be at least 1: '0'"),
    (("reach", fx("sequence"), "--max-states", "-2"),
     "wfmig reach: error: argument --max-states: must be at least 1: '-2'"),
    (("tts", fx("sequence"), "--marking", "p2", "--max-states", "0"),
     "wfmig tts: error: argument --max-states: must be at least 1: '0'"),
    (("map", "--old", fx("sequence"), "--new", fx("sequence"),
      "--max-states", "0"),
     "wfmig map: error: argument --max-states: must be at least 1: '0'"),
    (("oracle-tts", fx("sequence"), "--marking", "p2", "--max-states", "0"),
     "wfmig oracle-tts: error: argument --max-states: must be at least 1: "
     "'0'"),
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
], ids=["validate-max-states-0", "reach-max-states-negative",
        "tts-max-states-0", "map-max-states-0", "oracle-tts-max-states-0",
        "gen-net-max-places-1", "gen-net-max-transitions-0", "not-utf-8",
        "dot-unwritable", "deep-nesting", "id-is-a-place",
        "lone-surrogate", "place-name-whitespace", "repeated-arc"])
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
