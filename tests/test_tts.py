import random

import pytest

from wfmig import (GenParams, TtsLimitError, WFNet, build_reachability,
                   random_wfnet, tts_all)
from wfmig.equivalence import purge
from wfmig.net import _reach
from wfmig.reachability import ReachGraph, mask_names
from wfmig.tts import (EdgeSet, attachable_cycles, expand_with_cycles,
                       find_cycles, find_simple_paths, label_set,
                       tts_for_node)

from conftest import (FIXTURE_NAMES, fixture_net, label_families,
                      long_sequence_net, par_redo_net, with_empty_transitions)
from reference import oracle_tts

FIG4_P2_FAMILY = {
    frozenset({"T0"}),
    frozenset({"T0", "T1", "T2", "T3", "T4"}),
    frozenset({"T0", "T1", "T5", "T6", "T4"}),
    frozenset({"T0", "T1", "T2", "T5", "T3", "T6", "T4"}),
}

FIG6_P1_FAMILY = {
    frozenset(s) for s in [
        {"T0"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7"},
        {"T0", "T1", "T3", "T4", "T5", "T7", "T10", "T11", "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T10", "T11", "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T7", "T10", "T11", "T12", "T13",
         "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T7", "T8", "T9", "T10", "T11", "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11",
         "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T10", "T11", "T12",
         "T13", "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T7", "T8", "T9", "T10", "T11", "T12",
         "T13", "T14"},
        {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11",
         "T12", "T13", "T14"},
    ]
}


@pytest.fixture
def fig4_graph(fig4_net):
    return build_reachability(fig4_net)


@pytest.fixture
def fig6_graph(fig6_net):
    return build_reachability(fig6_net)


def labels_along(graph, path):
    return [graph.labels[graph.lab[e]] for e in path]


def test_seed_path_to_p2(fig4_graph):
    p2 = fig4_graph.keys().index("P2")
    paths = find_simple_paths(fig4_graph, fig4_graph.initial, p2)
    assert [labels_along(fig4_graph, p) for p in paths] == [["T0"]]


def test_same_node_yields_empty_path(fig4_graph):
    p3 = fig4_graph.keys().index("P3")
    assert find_simple_paths(fig4_graph, p3, p3) == [()]


def test_diamond_two_paths():
    net = WFNet(places=["a", "b", "c", "d"], transitions=["t1", "t2", "t3",
                                                          "t4"],
                arcs=[("a", "t1"), ("t1", "b"), ("a", "t2"), ("t2", "c"),
                      ("b", "t3"), ("t3", "d"), ("c", "t4"), ("t4", "d")])
    g = build_reachability(net)
    paths = find_simple_paths(g, g.initial, g.keys().index("d"))
    assert [labels_along(g, p) for p in paths] == [["t1", "t3"],
                                                   ["t2", "t4"]]


def test_unreachable_target_gives_no_paths(fig4_graph):
    keys = fig4_graph.keys()
    assert find_simple_paths(fig4_graph, keys.index("P2"),
                             keys.index("P1")) == []


def test_fig4_cycles(fig4_graph):
    label_sets = {label_set(fig4_graph, c.edges)
                  for c in find_cycles(fig4_graph)}
    assert label_sets == {frozenset({"T1", "T2", "T3", "T4"}),
                          frozenset({"T1", "T5", "T6", "T4"})}


def test_acyclic_graph_has_no_cycles(sequence_net):
    assert find_cycles(build_reachability(sequence_net)) == frozenset()


def test_fig6_cycles(fig6_graph):
    label_sets = {label_set(fig6_graph, c.edges)
                  for c in find_cycles(fig6_graph)}
    assert label_sets == {
        frozenset({"T3", "T4", "T5", "T6", "T7", "T1"}),
        frozenset({"T12", "T13"}),
        frozenset({"T4", "T8", "T9"}),
        frozenset({"T3", "T4", "T5", "T10", "T11", "T14", "T7", "T1"}),
    }


def test_self_loop_is_a_cycle():
    net = WFNet(places=["s", "a", "b"], transitions=["v", "t", "u"],
                arcs=[("s", "v"), ("v", "a"),
                      ("a", "t"), ("t", "a"), ("a", "u"), ("u", "b")])
    g = build_reachability(net)
    cycles = find_cycles(g)
    assert {tuple(labels_along(g, c.edges)) for c in cycles} == {("t",)}


def test_cycle_canonical_rotation(fig4_graph):
    g = fig4_graph
    src = [node for node in g.nodes for _ in range(g.off[node],
                                                   g.off[node + 1])]
    for cycle in find_cycles(g):
        nodes = [src[e] for e in cycle.edges]
        assert nodes[0] == min(nodes)
        assert set(nodes) == cycle.node_set
        assert [g.dst[e] for e in cycle.edges] == nodes[1:] + nodes[:1]


def test_fig4_expansion(fig4_graph):
    cycles = find_cycles(fig4_graph)
    p2 = fig4_graph.keys().index("P2")
    seeds = [EdgeSet.from_path(fig4_graph, p, fig4_graph.initial)
             for p in find_simple_paths(fig4_graph, fig4_graph.initial, p2)]
    expanded = expand_with_cycles(seeds, cycles)
    assert ({label_set(fig4_graph, es.edges) for es in expanded}
            == FIG4_P2_FAMILY)


def test_expansion_without_cycles_is_identity(sequence_net):
    g = build_reachability(sequence_net)
    seeds = [EdgeSet.from_path(g, p, g.initial)
             for p in find_simple_paths(g, g.initial, g.keys().index("p3"))]
    assert expand_with_cycles(seeds, frozenset()) == set(seeds)


def test_fig6_first_round_attaches_only_c1_and_c4(fig6_graph):
    cycles = find_cycles(fig6_graph)
    (seed,) = [EdgeSet.from_path(fig6_graph, p, fig6_graph.initial)
               for p in find_simple_paths(fig6_graph, fig6_graph.initial,
                                          fig6_graph.keys().index("P1"))]
    attached = {label_set(fig6_graph, c.edges)
                for c in attachable_cycles(seed, cycles)}
    assert attached == {
        frozenset({"T3", "T4", "T5", "T6", "T7", "T1"}),
        frozenset({"T3", "T4", "T5", "T10", "T11", "T14", "T7", "T1"}),
    }


def test_fig6_full_family(fig6_graph):
    p1 = fig6_graph.keys().index("P1")
    assert tts_for_node(fig6_graph, p1) == FIG6_P1_FAMILY


def test_fig4_family(fig4_graph):
    p2 = fig4_graph.keys().index("P2")
    assert tts_for_node(fig4_graph, p2) == FIG4_P2_FAMILY


def test_initial_node_of_acyclic_graph(sequence_net):
    g = build_reachability(sequence_net)
    assert tts_for_node(g, g.initial) == {frozenset()}


def test_tts_all_sequence(sequence_net):
    g = build_reachability(sequence_net)
    assert g.keys() == ["p1", "p2", "p3"]
    assert label_families(g) == {
        0: frozenset({frozenset()}),
        1: frozenset({frozenset({"T0"})}),
        2: frozenset({frozenset({"T0", "T1"})}),
    }


def test_tts_all_follows_no_trace_out_of_the_alphabet(sequence_net):
    g = build_reachability(sequence_net)
    assert tts_all(g, order=["T1"]) == {0: {0}, 1: set(), 2: set()}
    assert tts_all(g, order=["T0"]) == {0: {0}, 1: {1}, 2: set()}
    # an ignored label adds nothing, in the alphabet or not
    assert tts_all(g, {"T0"}, order=["T1"]) == {0: {0}, 1: {0}, 2: {1}}


def _decoded(families, order):
    return {node: {frozenset(mask_names(order, member)) for member in family}
            for node, family in families.items()}


@pytest.mark.parametrize("seed", range(15))
def test_drop_keeps_the_members_without_a_dropped_label(seed):
    """With a third of the labels dropped from the alphabet, a node's
    family, decoded by name, is the whole family's members that hold no
    dropped label."""
    net = with_empty_transitions(random_wfnet(GenParams(
        seed=seed, max_places=6, max_transitions=8)), seed)
    g = build_reachability(net)
    drop = frozenset(random.Random(seed).sample(
        g.labels, len(g.labels) // 3)) - net.empty_labels
    order = [label for label in g.labels if label not in drop]
    whole = _decoded(tts_all(g, net.empty_labels), g.labels)
    assert _decoded(tts_all(g, net.empty_labels, order), order) == {
        node: {tts for tts in family if not tts & drop}
        for node, family in whole.items()}


def _cut(g, t):
    """``g`` with the edges that fire label ``g.labels[t]`` taken out."""
    off, lab, dst = [0], [], []
    for node in g.nodes:
        for e in range(g.off[node], g.off[node + 1]):
            if g.lab[e] != t:
                lab.append(g.lab[e])
                dst.append(g.dst[e])
        off.append(len(dst))
    return ReachGraph(g.places, g.labels, g.masks, off, lab, dst, g.terminal)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_an_order_without_a_label_leaves_its_traces_out(name):
    """Each label in turn left out of the alphabet: decoded by name, the
    families are those of the graph with that label's edges cut, where a
    marking that only such traces reach has an empty family."""
    g = build_reachability(fixture_net(name))
    for t, label in enumerate(g.labels):
        order = g.labels[:t] + g.labels[t + 1:]
        assert _decoded(tts_all(g, order=order), order) == _decoded(
            tts_all(_cut(g, t)), g.labels), label


def test_every_member_contains_a_seed(fig6_graph):
    cycles = find_cycles(fig6_graph)
    for node in fig6_graph.nodes:
        seed_sets = [label_set(fig6_graph, p)
                     for p in find_simple_paths(fig6_graph,
                                                fig6_graph.initial, node)]
        for member in tts_for_node(fig6_graph, node, cycles):
            assert any(member >= s for s in seed_sets)


def test_cycle_order_independence(fig6_graph):
    cycles = list(find_cycles(fig6_graph))
    (seed,) = [EdgeSet.from_path(fig6_graph, p, fig6_graph.initial)
               for p in find_simple_paths(fig6_graph, fig6_graph.initial,
                                          fig6_graph.keys().index("P1"))]
    reference = expand_with_cycles([seed], frozenset(cycles))
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(cycles)
        assert expand_with_cycles([seed], tuple(cycles)) == reference


def test_family_bounded_by_label_powerset(fig6_net):
    for family in tts_all(build_reachability(fig6_net)).values():
        assert len(family) <= 2 ** len(fig6_net.transitions)


@pytest.mark.parametrize("seed", range(15))
def test_matches_oracle_on_random_nets(seed):
    net = random_wfnet(GenParams(seed=seed, max_places=6,
                                 max_transitions=8))
    g = build_reachability(net)
    if len(g.nodes) > 12:
        pytest.skip("graph larger than the desk-scale oracle limit")
    families = label_families(g)
    # the same graph with some labels empty: the closure drops them as it
    # walks, and must give the oracle's families purged afterwards
    empty = with_empty_transitions(net, seed).empty_labels
    purged = label_families(g, empty)
    for node in g.nodes:
        family = oracle_tts(g, node)
        assert families[node] == family
        assert purged[node] == purge(family, empty)


# ---------------------------------------------------------------------------
# tts_all (the closure) against the paper's fixpoint, and, where the
# fixpoint cannot finish, against the oracle.

def assert_closure_equals_fixpoint(net):
    g = build_reachability(net)
    cycles = find_cycles(g)
    assert label_families(g) == {n: tts_for_node(g, n, cycles)
                                 for n in g.nodes}


def test_closure_equals_fixpoint_on_criterion_4_nets():
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        net = random_wfnet(GenParams(seed=seed, max_places=8,
                                     max_transitions=10))
        if len(build_reachability(net).nodes) > 12:
            continue
        assert_closure_equals_fixpoint(net)
        checked += 1


@pytest.mark.parametrize("seed", range(100))
def test_closure_equals_fixpoint_on_state_machine_loop_nets(seed):
    assert_closure_equals_fixpoint(random_wfnet(GenParams(
        seed=seed, max_places=10, max_transitions=12, loop_probability=0.5,
        parallel_probability=0)))


@pytest.mark.parametrize("seed", range(20))
def test_closure_equals_fixpoint_on_acyclic_nets(seed):
    assert_closure_equals_fixpoint(random_wfnet(GenParams(
        seed=seed, max_places=12, max_transitions=16, loop_probability=0)))


def test_closure_matches_oracle_on_parallel_redo_net():
    g = build_reachability(par_redo_net(2, 2))
    assert len(g.nodes) == 11
    families = label_families(g)
    for node in g.nodes:
        assert families[node] == oracle_tts(g, node), node


def test_fixpoint_attaches_a_cycle_through_the_initial_marking():
    """s -a-> m -b-> s: the empty seed path of {s} covers only s, and the
    cycle must still attach there."""
    net = WFNet(places=["s", "m", "e"], transitions=["a", "b", "c"],
                arcs=[("s", "a"), ("a", "m"), ("m", "b"), ("b", "s"),
                      ("m", "c"), ("c", "e")], initial_marking={"s"})
    g = build_reachability(net)
    assert tts_for_node(g, g.initial) == {frozenset(), frozenset("ab")}
    assert_closure_equals_fixpoint(net)
    for node in g.nodes:
        assert oracle_tts(g, node) == tts_for_node(g, node), node


# ---------------------------------------------------------------------------
# tts_all with ``target``, as ``wfmig tts`` runs it, against the whole graph.

def assert_ancestor_closure_matches_whole_graph(net):
    """At every reachable marking, the closure over its ancestors alone
    gives each ancestor the family the whole-graph closure gives it."""
    g = build_reachability(net)
    whole = tts_all(g, net.empty_labels)
    pred = g.pred()
    for node in g.nodes:
        ancestors = _reach({node}, pred)
        assert tts_all(g, net.empty_labels, target=node) == {
            n: whole[n] for n in sorted(ancestors)}, node


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_ancestor_closure_matches_whole_graph_on_fixtures(name):
    assert_ancestor_closure_matches_whole_graph(fixture_net(name))


@pytest.mark.parametrize("seed", range(50))
def test_ancestor_closure_matches_whole_graph_on_loop_nets(seed):
    net = random_wfnet(GenParams(seed=seed, max_places=10,
                                 max_transitions=12, loop_probability=0.5))
    assert_ancestor_closure_matches_whole_graph(net)
    assert_ancestor_closure_matches_whole_graph(
        with_empty_transitions(net, seed))


def test_fixpoint_walks_a_deep_sequence():
    """The seed-path and cycle walks keep their own stacks: 1,200 edges
    from the initial marking is no deeper for them than one."""
    g = build_reachability(long_sequence_net(1200))
    last = g.nodes[-1]
    assert tts_for_node(g, last) == label_families(g)[last]


@pytest.mark.parametrize("net", [fixture_net(name) for name in FIXTURE_NAMES]
                         + [par_redo_net(2, 3)],
                         ids=FIXTURE_NAMES + ["par-redo-2-3"])
def test_tts_limit_counts_each_state_once(net):
    """The closure adds every (node, member) state once: it finishes at a
    limit of exactly its state count, and one less raises."""
    g = build_reachability(net)
    whole = tts_all(g, net.empty_labels)
    states = sum(map(len, whole.values()))
    assert tts_all(g, net.empty_labels, max_states=states) == whole
    if states > 1:
        with pytest.raises(TtsLimitError) as err:
            tts_all(g, net.empty_labels, max_states=states - 1)
        assert err.value.code == "TTS_LIMIT_EXCEEDED"
        assert str(err.value) == ("TTS closure exceeds %d states"
                                  % (states - 1))
    with pytest.raises(ValueError):
        tts_all(g, max_states=0)


def test_tts_limit_counts_the_ancestor_states_only():
    net = par_redo_net(2, 3)
    g = build_reachability(net)
    pred = g.pred()
    for node in g.nodes:
        ancestors = _reach({node}, pred)
        part = tts_all(g, target=node)
        assert set(part) == ancestors
        states = sum(map(len, part.values()))
        assert tts_all(g, target=node, max_states=states) == part
        if states > 1:
            with pytest.raises(TtsLimitError):
                tts_all(g, target=node, max_states=states - 1)
