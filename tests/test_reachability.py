from collections import deque

import pytest

from wfmig import (NetFormatError, RGEdge, ReachGraph, StateLimitError,
                   UnsafeFiringError, UnsafeNetError, WFNet,
                   build_reachability, enabled, fire, to_dot,
                   validate_behavioral)
from wfmig.oracle import GenParams, random_wfnet
from wfmig.reachability import DEFAULT_MAX_STATES, marking_key

from conftest import (FIXTURE_NAMES, GOLDEN, fixture_net, long_sequence_net,
                      par_redo_net)


def test_sequence_graph(sequence_net):
    g = build_reachability(sequence_net)
    assert g.nodes == ("p1", "p2", "p3")
    assert [(e.src, e.label, e.dst) for e in g.edges] == [
        ("p1", "T0", "p2"), ("p2", "T1", "p3")]
    assert g.initial == "p1"
    assert g.terminal == "p3"


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
    assert flagged == {"{%s}" % n for n in g.nodes}


def test_build_is_deterministic(fig6_net):
    a = build_reachability(fig6_net)
    b = build_reachability(fixture_net("fig6"))
    assert a.nodes == b.nodes
    assert a.edges == b.edges


def test_edges_replay(fig6_net):
    g = build_reachability(fig6_net)
    for e in g.edges:
        src = frozenset(e.src.split(","))
        assert marking_key(fire(fig6_net, src, e.label)) == e.dst


def _exhaustive_markings(net):
    """Independent token-game enumeration, order-free recursion."""
    seen = set()

    def explore(m):
        if m in seen:
            return
        seen.add(m)
        for label in enabled(net, m):
            explore(fire(net, m, label))

    explore(net.initial_marking)
    return seen


@pytest.mark.parametrize("seed", range(25))
def test_completeness_against_exhaustive_enumeration(seed):
    net = random_wfnet(GenParams(seed=seed, max_places=8))
    g = build_reachability(net)
    assert set(g.nodes) == {marking_key(m) for m in _exhaustive_markings(net)}


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
# of ``enabled`` and ``fire``, which it must reproduce exactly.

def reference_reachability(net, max_states=DEFAULT_MAX_STATES):
    """BFS that checks every transition at every marking with ``enabled``
    and builds every successor with ``fire``."""
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    init_key = marking_key(net.initial_marking)
    marking = {init_key: net.initial_marking}
    order, edges, succ = [init_key], [], {}
    queue = deque([init_key])
    while queue:
        key = queue.popleft()
        out = []
        for label in sorted(enabled(net, marking[key])):
            try:
                nxt = fire(net, marking[key], label)
            except UnsafeFiringError as exc:
                raise UnsafeNetError(
                    "net is not 1-bounded: %s" % exc) from exc
            nxt_key = marking_key(nxt)
            if nxt_key not in marking:
                if len(order) + 1 > max_states:
                    raise StateLimitError(
                        "reachability exceeds %d states" % max_states)
                marking[nxt_key] = nxt
                order.append(nxt_key)
                queue.append(nxt_key)
            out.append(RGEdge(key, label, nxt_key))
        edges += out
        succ[key] = tuple(out)
    sink_key = marking_key(net.sink_places())
    terminal = (sink_key if len(net.sink_places()) == 1
                and sink_key in marking else None)
    return ReachGraph(tuple(order), tuple(edges), init_key, terminal, succ)


def assert_same_graph(net, max_states=DEFAULT_MAX_STATES):
    """Equal graphs, ``succ`` included and keyed by every marking in
    discovery order, or the same error with the same message."""
    try:
        expected = reference_reachability(net, max_states)
    except (StateLimitError, UnsafeNetError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            build_reachability(net, max_states)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    g = build_reachability(net, max_states)
    assert g == expected
    assert list(g.succ) == list(expected.succ) == list(expected.nodes)
    assert g.succ == expected.succ


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
