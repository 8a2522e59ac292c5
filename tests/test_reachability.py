import pytest

from wfmig import (GenParams, NetFormatError, StateLimitError, UnsafeNetError,
                   WFNet, build_reachability, marking_key, random_wfnet,
                   validate_behavioral)
from wfmig.reachability import DEFAULT_MAX_STATES, to_dot

from conftest import (FIXTURE_NAMES, GOLDEN, fixture_net, long_sequence_net,
                      par_redo_net)
from reference import fire, reference_reachability


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
    assert validate_behavioral(sequence_net, g).ok


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
    report = validate_behavioral(net, g)
    codes = {(v.code, v.element) for v in report.violations}
    # t4 joins p2 and p3, which are never marked together
    assert ("DEAD_TRANSITION", "t4") in codes
    assert ("NO_PROPER_COMPLETION", "{p3}") in codes
    assert ("NO_PROPER_COMPLETION", "{p1}") not in codes


def test_no_terminal_flags_every_node(fig4_net):
    g = build_reachability(fig4_net)
    report = validate_behavioral(fig4_net, g)
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


def test_to_dot_goldens(sequence_net, fig4_net):
    for name, net in (("sequence", sequence_net), ("fig4", fig4_net)):
        golden = (GOLDEN / ("%s.dot" % name)).read_text()
        assert to_dot(build_reachability(net)) == golden


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
