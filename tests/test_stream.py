"""``reach --dot`` and ``map`` write their text in batches as it is made:
the bytes equal the one-string forms (``to_dot``, ``emit_*``), and no
command holds the whole text."""

import sys
import tracemalloc

import pytest

from wfmig import (GenParams, WFNet, build_reachability,
                   find_equivalence_mapping, random_wfnet, serialize_net)
from wfmig import cli, netformat
from wfmig.cli import main
from wfmig.reachability import to_dot

from conftest import (FIXTURE_NAMES, emit_cases, fixture_net,
                      helper_sequence_net, par_net, par_redo_net,
                      with_empty_transitions)
from reference import csv_text, table_text

EMIT = {"table": netformat.emit_table, "json": netformat.emit_json,
        "csv": netformat.emit_csv}
VALID_FIXTURES = [name for name in FIXTURE_NAMES if name != "fig2b"]


def generator_nets():
    """50 generator nets, about 30% of their transitions empty."""
    return [with_empty_transitions(random_wfnet(GenParams(seed=seed)), seed)
            for seed in range(50)]


def write_net(tmp_path, net):
    path = tmp_path / ("%s.json" % net.name)
    path.write_text(serialize_net(net), encoding="utf-8")
    return str(path)


class Recorder:
    """A stream that keeps the size of each write and, if asked, the
    text."""

    def __init__(self, keep=True):
        self.sizes = []
        self.text = [] if keep else None

    def write(self, text):
        self.sizes.append(len(text))
        if self.text is not None:
            self.text.append(text)
        return len(text)

    def flush(self):
        pass


def test_batches_are_bounded_by_size_and_keep_the_pieces():
    pieces = ["x" * size for size in [10, 3000, 70000, 5, 1] * 40]
    stream = Recorder()
    cli._write_batched(stream, iter(pieces))
    assert "".join(stream.text) == "".join(pieces)
    # a batch closes at the piece that takes it to BATCH_CHARS
    assert max(stream.sizes) < cli.BATCH_CHARS + max(map(len, pieces))
    assert all(size >= cli.BATCH_CHARS for size in stream.sizes[:-1])


def test_small_output_is_one_write():
    stream = Recorder()
    cli._write_batched(stream, ["a\n", "b\n", "c\n"])
    assert stream.text == ["a\nb\nc\n"]


def test_cli_dot_file_equals_to_dot(tmp_path, capsys):
    nets = ([fixture_net(name) for name in VALID_FIXTURES]
            + generator_nets() + [par_redo_net(3, 12)])
    for net in nets:
        dot = tmp_path / "g.dot"
        assert main(["reach", write_net(tmp_path, net), "--dot",
                     str(dot)]) == 0, net.name
        assert dot.read_text(encoding="utf-8") == to_dot(
            build_reachability(net)), net.name
    capsys.readouterr()


@pytest.mark.parametrize("fmt", sorted(EMIT))
def test_cli_map_stdout_equals_emit(tmp_path, capsys, fmt):
    """Fixture pairs (fig8 and each valid fixture against itself), each
    generator net against its successor, and one output of many batches."""
    pairs = [(fixture_net("fig8_old"), fixture_net("fig8_new"))]
    pairs += [(fixture_net(name),) * 2 for name in VALID_FIXTURES]
    nets = generator_nets()
    pairs += list(zip(nets, nets[1:] + nets[:1]))
    pairs.append((helper_sequence_net(300),) * 2)
    for old, new in pairs:
        code = main(["map", "--old", write_net(tmp_path, old),
                     "--new", write_net(tmp_path, new), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), (old.name, new.name)
        assert captured.out == EMIT[fmt](
            old, new, find_equivalence_mapping(old, new)), (old.name,
                                                            new.name)
    assert len(captured.out) > 4 * cli.BATCH_CHARS


@pytest.mark.parametrize("fmt, reference", [("table", table_text),
                                            ("csv", csv_text)])
def test_emit_table_and_csv_write_what_the_references_write(fmt, reference):
    """emit_table and emit_csv join each row's keys at once; the
    references write one ``key_label`` per key, on every ``emit_cases``
    case."""
    for old, new, table in emit_cases():
        assert EMIT[fmt](old, new, table) == reference(old, new, table)


def test_map_json_renders_each_marking_once(tmp_path, capsys, monkeypatch):
    """``map --format json`` of par_redo(3,4) against itself renders each
    old row's marking once and each distinct new marking at most once, not
    once per entry: its rows hold over ten times that many entries."""
    net = par_redo_net(3, 4)
    path = write_net(tmp_path, net)
    rendered = []
    render = netformat._json_places
    monkeypatch.setattr(netformat, "_json_places",
                        lambda key, frame: rendered.append(key)
                        or render(key, frame))
    assert main(["map", "--old", path, "--new", path,
                 "--format", "json"]) == 0
    capsys.readouterr()
    rows = find_equivalence_mapping(net, net).rows
    once = len(rows) + len({key for _, eq in rows for key in eq})
    assert sum(len(eq) for _, eq in rows) > 10 * once
    assert len(rendered) <= once


def traced_peak(argv):
    """Peak of the memory Python allocates while ``main(argv)`` runs,
    less what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reach_dot_holds_less_than_the_dot_text(tmp_path, capsys):
    """Writing the DOT file of par(5,6) (16,807 markings) adds less to the
    traced peak than the file's size; building the text whole added about
    2.6 times its size."""
    path = write_net(tmp_path, par_net(5, 6))
    dot = tmp_path / "g.dot"
    plain = traced_peak(["reach", path])
    with_dot = traced_peak(["reach", path, "--dot", str(dot)])
    capsys.readouterr()
    size = dot.stat().st_size
    assert size > 4 * 10 ** 6
    assert with_dot - plain < size


def test_map_json_holds_less_than_half_its_output(tmp_path, monkeypatch):
    """``map --format json`` of a helper sequence against itself, stdout a
    sink that keeps no bytes: the traced peak stays below half the output's
    size, which holds every row's list of all markings."""
    path = write_net(tmp_path, helper_sequence_net(500))
    sink = Recorder(keep=False)
    monkeypatch.setattr(sys, "stdout", sink)
    peak = traced_peak(["map", "--old", path, "--new", path,
                        "--format", "json"])
    size = sum(sink.sizes)
    assert size > 8 * 10 ** 6
    assert peak < size / 2
