import random

import pytest

from wfmig import (GenParams, NetFormatError, StateLimitError, UnsafeNetError,
                   WFNet, build_reachability, marking_key, parse_net,
                   random_wfnet, serialize_net, validate_behavioral)
from wfmig import reachability
from wfmig.cli import main
from wfmig.reachability import (DEFAULT_MAX_STATES, PIECE_LINES, dot_lines,
                                mask_names, to_dot)

from conftest import (FIXTURE_NAMES, GOLDEN, ROOT, choice_net, fixture_net,
                      long_sequence_net, par_net, par_redo_net,
                      shuffled_names)
from reference import dot_lines as reference_dot_lines
from reference import fire, low_bit_names, reference_reachability


def test_sequence_graph(sequence_net):
    g = build_reachability(sequence_net)
    assert g.keys() == ["p1", "p2", "p3"]
    assert (g.off, g.dst) == ([0, 1, 2, 2], [1, 2])
    assert [g.labels[t] for t in g.lab] == ["T0", "T1"]
    assert g.initial == 0
    assert g.terminal == 2


def test_fig4_graph_counts(fig4_net):
    g = build_reachability(fig4_net)
    assert len(g.nodes) == 6
    assert len(g.edges) == 7
    assert g.terminal is None  # the closing join never fires


def test_state_limit(sequence_net):
    with pytest.raises(StateLimitError):
        build_reachability(sequence_net, max_states=1)


def test_unsafe_net_detected():
    net = WFNet(places=["p1", "p2", "p3", "p4"], transitions=["s", "t", "u"],
                arcs=[("p1", "s"), ("s", "p2"), ("s", "p3"),
                      ("p2", "t"), ("t", "p3"),
                      ("p3", "u"), ("u", "p4")])
    with pytest.raises(UnsafeNetError):
        build_reachability(net)


def test_behavioral_sequence_ok(sequence_net):
    g = build_reachability(sequence_net)
    assert validate_behavioral(g).ok


def _dead_end_net():
    """XOR branch into p3, a structurally connected but dead-end place."""
    return WFNet(places=["p1", "p2", "p3", "p4"],
                 transitions=["t1", "t2", "t3", "t4"],
                 arcs=[("p1", "t1"), ("t1", "p2"),
                       ("p1", "t2"), ("t2", "p3"),
                       ("p2", "t3"), ("t3", "p4"),
                       ("p2", "t4"), ("p3", "t4"), ("t4", "p4")])


def test_behavioral_flags_dead_end_and_dead_transition():
    net = _dead_end_net()
    g = build_reachability(net)
    report = validate_behavioral(g)
    codes = {(v.code, v.element) for v in report.violations}
    # t4 joins p2 and p3, which are never marked together
    assert ("DEAD_TRANSITION", "t4") in codes
    assert ("NO_PROPER_COMPLETION", "{p3}") in codes
    assert ("NO_PROPER_COMPLETION", "{p1}") not in codes


def test_no_terminal_flags_every_node(fig4_net):
    g = build_reachability(fig4_net)
    report = validate_behavioral(g)
    flagged = {v.element for v in report.violations
               if v.code == "NO_PROPER_COMPLETION"}
    assert flagged == {"{%s}" % key for key in g.keys()}


def test_build_is_deterministic(fig6_net):
    a = build_reachability(fig6_net)
    b = build_reachability(fixture_net("fig6"))
    assert a.keys() == b.keys()
    assert (a.labels, a.off, a.lab, a.dst) == (b.labels, b.off, b.lab, b.dst)


def test_edges_replay(fig6_net):
    g = build_reachability(fig6_net)
    keys = g.keys()
    for node in g.nodes:
        src = frozenset(keys[node].split(","))
        for e in range(g.off[node], g.off[node + 1]):
            assert (marking_key(fire(fig6_net, src, g.labels[g.lab[e]]))
                    == keys[g.dst[e]])


@pytest.mark.parametrize("seed", range(25))
def test_completeness_against_exhaustive_enumeration(seed):
    net = random_wfnet(GenParams(seed=seed, max_places=8))
    g = build_reachability(net)
    assert set(g.keys()) == set(reference_reachability(net)[0])


def test_each_source_lists_its_edges_in_strictly_increasing_label_order():
    """One edge per transition and source, in sorted label order: to_dot
    writes each source's edges in this CSR order without sorting them."""
    nets = [fixture_net(name) for name in FIXTURE_NAMES]
    nets += [random_wfnet(GenParams(seed=seed)) for seed in range(50)]
    nets += [par_redo_net(2, 2), long_sequence_net(30)]
    nets += [net for name, net in _edge_case_nets() if "unsafe" not in name]
    for net in nets:
        g = build_reachability(net)
        assert list(g.labels) == sorted(net.labels)
        assert len(g.off) == len(g.nodes) + 1
        assert g.off[0] == 0 and g.off[-1] == len(g.edges) == len(g.lab)
        for node in g.nodes:
            labels = g.lab[g.off[node]:g.off[node + 1]]
            assert all(a < b for a, b in zip(labels, labels[1:])), net.name


def test_to_dot_single_node():
    g = build_reachability(WFNet(places=["p1"], transitions=[], arcs=[]))
    assert to_dot(g) == 'digraph reachability {\n  "{p1}";\n}\n'


def test_to_dot_orders_edges_by_source_label_destination():
    net = WFNet(places=["p1", "p2", "p3"], transitions=["a", "b"],
                arcs=[("p1", "a"), ("a", "p3"), ("p1", "b"), ("b", "p2")])
    assert to_dot(build_reachability(net)).splitlines()[4:6] == [
        '  "{p1}" -> "{p3}" [label="a"];', '  "{p1}" -> "{p2}" [label="b"];']


def test_to_dot_escapes_quotes_and_backslashes():
    net = WFNet(places=["s", 'm"x', "e"], transitions=["t\\u", "v"],
                arcs=[("s", "t\\u"), ("t\\u", 'm"x'), ('m"x', "v"),
                      ("v", "e")])
    assert to_dot(build_reachability(net)) == (
        'digraph reachability {\n'
        '  "{e}";\n'
        '  "{m\\"x}";\n'
        '  "{s}";\n'
        '  "{m\\"x}" -> "{e}" [label="v"];\n'
        '  "{s}" -> "{m\\"x}" [label="t\\\\u"];\n'
        '}\n')


def sequence_1100_net():
    """The 1,100-task sequence of ``tests/nets``: its DOT text is 2,203
    lines, so its node lines and its edge lines each cross a piece
    boundary."""
    path = ROOT / "tests" / "nets" / "sequence_1100.json"
    return parse_net(path.read_text(encoding="utf-8"))


def test_to_dot_goldens(sequence_net, fig4_net):
    for name, net in (("sequence", sequence_net), ("fig4", fig4_net),
                      ("sequence_1100", sequence_1100_net())):
        golden = (GOLDEN / ("%s.dot" % name)).read_text()
        assert to_dot(build_reachability(net)) == golden


# ---------------------------------------------------------------------------
# dot_lines and the keys it is made of, against the reference writer that
# makes one line at a time from keys decoded from the lowest bit up.

def _escaped_net(in_places, in_labels):
    """A fork into two branches of one task each, a redo on the first,
    then a join; the names of the branch places, of the tasks, or of both
    hold ``"`` or ``\\``, so a key holds both characters and a comma."""
    p = (['x"1', "x\\2", 'y"\\3', "y4"] if in_places
         else ["x1", "x2", "y3", "y4"])
    t = ['a"', "b\\", 'c"\\d'] if in_labels else ["a", "b", "c"]
    return WFNet(["s", "e"] + p, ["fork", "join"] + t,
                 [("s", "fork"), ("fork", p[0]), ("fork", p[1]),
                  (p[0], t[0]), (t[0], p[2]), (p[1], t[1]), (t[1], p[3]),
                  (p[2], t[2]), (t[2], p[0]),
                  (p[2], "join"), (p[3], "join"), ("join", "e")],
                 name="escaped-%d-%d" % (in_places, in_labels))


def _dot_cases():
    """(id, net) pairs: the fixtures, the 24/36 generator nets, shuffled
    par_redo(3,4) nets, two nets of more than 1,024 nodes and edges, and
    names holding ``"`` or ``\\`` in the places, the labels or both."""
    cases = [(name, fixture_net(name)) for name in FIXTURE_NAMES]
    cases += [("24-36-seed-%d" % seed,
               random_wfnet(GenParams(seed=seed, max_places=24,
                                      max_transitions=36)))
              for seed in range(20)]
    cases += [("shuffled-par-redo-3-4-%d" % seed,
               shuffled_names(par_redo_net(3, 4), seed)) for seed in range(3)]
    cases += [("par-2-40", par_net(2, 40)),
              ("sequence-1100", sequence_1100_net())]
    cases += [("escaped-%s" % where, _escaped_net(*flags))
              for where, flags in (("places", (True, False)),
                                   ("labels", (False, True)),
                                   ("both", (True, True)))]
    return cases


@pytest.mark.parametrize("net", [net for _, net in _dot_cases()],
                         ids=[i for i, _ in _dot_cases()])
def test_to_dot_and_the_cli_dot_file_equal_the_reference(net, tmp_path,
                                                         capsys):
    """Same bytes as the reference writer, from ``to_dot`` and from
    ``reach --dot``; every piece is whole lines, and a piece closes once it
    holds ``PIECE_LINES`` lines, after its last source's edges."""
    graph = build_reachability(net)
    expected = "".join(reference_dot_lines(graph))
    assert to_dot(graph) == expected
    pieces = list(dot_lines(graph))
    assert all(piece.endswith("\n") for piece in pieces)
    most = max(graph.off[i + 1] - graph.off[i] for i in graph.nodes)
    assert all(piece.count("\n") < PIECE_LINES + most
               for piece in pieces)
    assert all(piece.count("\n") >= PIECE_LINES for piece in pieces[:-1])
    if expected.count("\n") > 2048:   # pieces of about 1,024 lines
        assert len(pieces) > 2
    path, dot = tmp_path / "net.json", tmp_path / "net.dot"
    path.write_text(serialize_net(net), encoding="utf-8")
    code = main(["reach", str(path), "--dot", str(dot)])
    capsys.readouterr()
    if net.name == "fig2b":     # not a workflow net: no graph is written
        assert (code, dot.exists()) == (1, False)
    else:
        assert code == 0
        assert dot.read_text(encoding="utf-8") == expected


def assert_keys_decode_as_the_low_bit_walk(graph):
    expected = [",".join(low_bit_names(graph.places, m))
                for m in graph.masks]
    assert graph.keys() == expected
    assert [",".join(mask_names(graph.places, m))
            for m in graph.masks] == expected
    nodes = list(graph.nodes)[::-3]
    assert graph.keys(nodes) == [expected[node] for node in nodes]
    assert [graph.key(node) for node in nodes[:5]] == [
        expected[node] for node in nodes[:5]]


@pytest.mark.parametrize("count", [29, 30, 31, 60, 61])
def test_keys_at_the_int_digit_boundaries(count):
    """CPython's ints hold 30 bits a digit: a sequence marks each bit alone,
    and a fork of ``count - 2`` branches marks them all at once."""
    for net in (long_sequence_net(count - 1), par_net(count - 2, 0)):
        assert len(net.places) == count
        assert_keys_decode_as_the_low_bit_walk(build_reachability(net))


def test_keys_of_a_2000_place_sequence():
    assert_keys_decode_as_the_low_bit_walk(
        build_reachability(long_sequence_net(1999)))


def test_the_key_of_a_reachable_empty_marking_is_empty():
    drain = WFNet(["a"], ["t"], [("a", "t")])
    for net in (drain, dict(_edge_case_nets())["empty-initial-marking"]):
        graph = build_reachability(net)
        assert "" in graph.keys()
        assert_keys_decode_as_the_low_bit_walk(graph)
    assert build_reachability(drain).keys() == ["a", ""]


def test_each_caller_decodes_its_masks_in_one_batch(monkeypatch, capsys):
    """``validate_behavioral`` decodes every flagged node in one call,
    ``reach`` its initial and terminal keys in one, and ``tts`` its
    members in one: no caller makes the decoder's tables once per mask."""
    calls = []
    decode = reachability.decode_masks
    monkeypatch.setattr(reachability, "decode_masks",
                        lambda names, masks: calls.append(names)
                        or decode(names, masks))
    fig4 = build_reachability(fixture_net("fig4"))
    report = validate_behavioral(fig4)
    assert len(report.violations) > len(fig4.nodes) and len(calls) == 1
    for argv in (["reach", "sequence"],
                 ["tts", "fig6", "--marking", "P1", "--keep-empty"]):
        calls.clear()
        path = ROOT / "fixtures" / ("%s.json" % argv[1])
        assert main([argv[0], str(path)] + argv[2:]) == 0
        assert len(calls) == 1, argv
        out, err = capsys.readouterr()
        assert err == "", argv
    assert out.count("\n") == 11
    assert out.endswith("\n{T0,T1,T3,T4,T5,T6,T7,T8,T9}\n")


# ---------------------------------------------------------------------------
# build_reachability's bitmask token game against the frozenset token game
# of ``reference.enabled`` and ``reference.fire``, which it must reproduce
# exactly.

def assert_same_graph(net, max_states=DEFAULT_MAX_STATES):
    """The kernel's CSR graph, decoded to keys, equals the reference's:
    the keys in discovery order, each source's ``(label, destination key)``
    list in order, and the initial and terminal keys; or the same error
    with the same message."""
    try:
        expected = reference_reachability(net, max_states)
    except (StateLimitError, UnsafeNetError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            build_reachability(net, max_states)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    g = build_reachability(net, max_states)
    keys = g.keys()
    succ = [[(g.labels[g.lab[e]], keys[g.dst[e]])
             for e in range(g.off[node], g.off[node + 1])]
            for node in g.nodes]
    terminal = None if g.terminal is None else keys[g.terminal]
    assert (keys, succ, keys[g.initial], terminal) == expected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_equals_reference_on_fixtures(name):
    assert_same_graph(fixture_net(name))


def test_kernel_equals_reference_on_generator_nets():
    nets = [random_wfnet(GenParams(seed=seed, max_places=8,
                                   max_transitions=10))
            for seed in range(1, 101)]  # criterion 4's nets
    nets += [random_wfnet(GenParams(seed=seed, max_places=10,
                                    max_transitions=12,
                                    loop_probability=0.5,
                                    parallel_probability=0))
             for seed in range(100)]
    for net in nets:
        assert_same_graph(net)


@pytest.mark.parametrize("net", [par_redo_net(2, 2), long_sequence_net(1200)],
                         ids=["par-redo-2-2", "sequence-1200"])
def test_kernel_equals_reference_on_larger_nets(net):
    assert_same_graph(net)


def test_kernel_equals_reference_where_a_high_bit_owns_many_transitions():
    """One place, past bit 1,000, owns 40 transitions: firing into it turns
    their 40 candidate bits on in one flip, and firing any of them turns
    all 40 off."""
    net = choice_net(40, 50)
    assert sorted(net.places).index("s") > 1000
    assert len(net._post["s"]) == 40
    assert_same_graph(net)


def test_kernel_equals_reference_on_shuffled_names():
    """Names permuted so the sorted order crosses the structure: the bit
    numbering, the lowest input place of each transition and the sorted
    label order all change, and the graph still equals the reference."""
    net = par_redo_net(3, 4)
    for seed in range(3):
        shuffled = shuffled_names(net, seed)
        assert sorted(shuffled.arcs) != sorted(net.arcs)
        assert_same_graph(shuffled)


def _late_join_arcs(n):
    """The arcs of a fork into ``a`` and into a branch of ``n`` tasks from
    ``p0`` to ``p<n>``, then the join ``j`` of ``a`` and ``p<n>``, with
    ``a``'s arc into the join listed first."""
    arcs = [("s", "fork"), ("fork", "a"), ("fork", "p0"),
            ("a", "j"), ("p%d" % n, "j"), ("j", "e")]
    for i in range(n):
        arcs += [("p%d" % i, "t%d" % i), ("t%d" % i, "p%d" % (i + 1))]
    return arcs


def _late_join_net(arcs, n):
    return WFNet(["s", "a", "e"] + ["p%d" % i for i in range(n + 1)],
                 ["fork", "j"] + ["t%d" % i for i in range(n)], arcs)


def test_kernel_equals_reference_where_a_join_waits_on_a_late_input():
    """The join is owned by its first-listed input ``a``, marked by the fork
    many firings before ``p12``: it is a candidate at every marking on the
    way, and enabled only at the last."""
    net = _late_join_net(_late_join_arcs(12), 12)
    assert net._pre["j"] == ["a", "p12"]
    assert_same_graph(net)
    g = build_reachability(net)
    assert [g.labels[t] for t in g.lab].count("j") == 1


def test_owner_order_changes_no_graph():
    """With the arc list reversed each transition is owned by another of
    its inputs (the join by ``p12``), and the graph does not change."""
    arcs = _late_join_arcs(12)
    net, other = _late_join_net(arcs, 12), _late_join_net(arcs[::-1], 12)
    assert other._pre["j"] == ["p12", "a"]
    assert_same_graph(other)
    a, b = build_reachability(net), build_reachability(other)
    assert ((a.places, a.labels, a.masks, a.off, a.lab, a.dst, a.terminal)
            == (b.places, b.labels, b.masks, b.off, b.lab, b.dst,
                b.terminal))


def test_kernel_equals_reference_where_a_self_loop_place_owns_a_join():
    """``b`` reads and returns the token in ``r``, which owns the join
    ``c``: firing ``b`` leaves ``r`` marked, so its flip must leave ``c`` a
    candidate, or ``c`` never fires."""
    net = WFNet(["s", "p", "r", "q", "e"], ["a", "b", "c"],
                [("s", "a"), ("a", "p"), ("a", "r"), ("p", "b"), ("r", "b"),
                 ("b", "q"), ("b", "r"), ("r", "c"), ("q", "c"),
                 ("c", "e")])
    assert net._pre["c"][0] == "r" and "r" in net._post["b"]
    assert_same_graph(net)
    g = build_reachability(net)
    assert g.keys() == ["s", "p,r", "q,r", "e"]
    assert g.terminal == 3


@pytest.mark.parametrize("first, second", [("u", "v"), ("v", "u")])
def test_the_first_clash_in_label_order_is_reported(first, second):
    """At ``{m,n,pa,pz}`` both ``first`` (from ``pz`` into ``m``) and
    ``second`` (from ``pa`` into ``n``) are enabled and would put a second
    token in a marked place; the one first in label order is reported,
    whichever place owns it."""
    net = WFNet(["s", "pa", "pz", "m", "n"], ["f", first, second],
                [("s", "f"), ("f", "pa"), ("f", "pz"), ("f", "m"),
                 ("f", "n"), ("pz", first), (first, "m"), ("pa", second),
                 (second, "n")])
    assert_same_graph(net)
    with pytest.raises(UnsafeNetError) as got:
        build_reachability(net)
    place = "m" if first == "u" else "n"
    assert str(got.value) == ("net is not 1-bounded: firing 'u' would put "
                              "a second token in %s" % place)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_equals_reference_on_the_largest_generator_nets(seed):
    """The 24-place, 36-transition generator nets of ROADMAP's scale
    goal."""
    assert_same_graph(random_wfnet(GenParams(seed=seed, max_places=24,
                                             max_transitions=36)))


def test_kernel_equals_reference_on_shuffled_arcs():
    """Names and arc order shuffled by a seeded RNG: the owners of the
    transitions change with the arc order, the graph with neither."""
    net = par_redo_net(3, 4)
    for seed in range(3):
        shuffled = shuffled_names(net, seed)
        arcs = sorted(shuffled.arcs)
        random.Random(seed).shuffle(arcs)
        assert_same_graph(WFNet(sorted(shuffled.places),
                                shuffled.sorted_labels, arcs))


def _edge_case_nets():
    """(id, net) pairs the generator never makes."""
    return [
        # z has no arcs: enabled everywhere, a self-loop edge at each marking
        ("empty-preset", WFNet(["p1", "p2"], ["t", "z"],
                               [("p1", "t"), ("t", "p2")])),
        # z marks p2 from nothing, so it fires again onto its own token
        ("empty-preset-unsafe", WFNet(["p1", "p2"], ["t", "z"],
                                      [("p1", "t"), ("t", "p2"),
                                       ("z", "p2")])),
        # b reads and returns the token in r
        ("self-loop-place", WFNet(
            ["s", "p", "r", "q", "e"], ["a", "b", "c"],
            [("s", "a"), ("a", "p"), ("a", "r"), ("p", "b"), ("r", "b"),
             ("b", "q"), ("b", "r"), ("q", "c"), ("r", "c"), ("c", "e")])),
        ("unsafe", WFNet(["p1", "p2", "p3", "p4"], ["s", "t", "u"],
                         [("p1", "s"), ("s", "p2"), ("s", "p3"),
                          ("p2", "t"), ("t", "p3"),
                          ("p3", "u"), ("u", "p4")])),
        # no unique source: the BFS starts from the empty marking
        ("empty-initial-marking", WFNet(
            ["a", "b", "c"], ["t", "u"], [("a", "t"), ("b", "u"),
                                          ("t", "c"), ("u", "c")])),
    ]


@pytest.mark.parametrize("net", [n for _, n in _edge_case_nets()],
                         ids=[i for i, _ in _edge_case_nets()])
def test_kernel_equals_reference_on_edge_cases(net):
    assert_same_graph(net)


def test_initial_marking_must_name_declared_places():
    for places in (["p1", "p2"], ["p1", "p1", "p2"]):  # checked first
        with pytest.raises(NetFormatError) as err:
            WFNet(places, ["t"], [("p1", "t"), ("t", "p2")],
                  initial_marking={"p1", "x"})
        assert err.value.code == "UNKNOWN_ENDPOINT"
        assert str(err.value) == "initial marking names unknown place 'x'"


def test_kernel_unsafe_message_is_byte_identical():
    net = dict(_edge_case_nets())["unsafe"]
    with pytest.raises(UnsafeNetError) as got:
        build_reachability(net)
    assert str(got.value) == ("net is not 1-bounded: firing 't' would put "
                              "a second token in p3")


@pytest.mark.parametrize("net", [fixture_net("fig6"), par_redo_net(2, 2)],
                         ids=["fig6", "par-redo-2-2"])
def test_kernel_state_limit_at_the_marking_count(net):
    count = len(build_reachability(net).nodes)
    for limit in (count, count - 1, 1, 0):
        assert_same_graph(net, limit)
    assert len(build_reachability(net, count).nodes) == count
    with pytest.raises(StateLimitError,
                       match="exceeds %d states" % (count - 1)):
        build_reachability(net, count - 1)
