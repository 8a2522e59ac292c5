import gc
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wfmig import (GenParams, MappingTable, Transition, WFNet,
                   build_reachability, change_region,
                   find_equivalence_mapping, parse_net, random_wfnet,
                   tts_all)
from wfmig import equivalence
from wfmig.equivalence import purge
from wfmig.reachability import mask_names

from conftest import (FIXTURES, bench_inputs, fixture_net, oracle_mapping,
                      par_redo_net, with_empty_transitions)

TABLE_1 = {
    "p1": {"p1", "p12,p2"},
    "p2,p6": {"p13,p2"},
    "p3,p6": {"p13,p3", "p4,p6"},
    "p3,p7": {"p4,p7"},
    "p2,p7": set(),
    "p4,p6": set(),
    "p4,p7": set(),
    "p5,p6": set(),
    "p5,p7": set(),
    "p8": set(),
    "p9": set(),
    "p10": set(),
    "p11": set(),
}


def test_purge_removes_empty_labels():
    family = frozenset({frozenset({"T0", "e1", "T2"})})
    assert purge(family, {"e1"}) == frozenset({frozenset({"T0", "T2"})})


def test_purge_collapses_duplicates():
    family = frozenset({frozenset({"T0", "e1"}), frozenset({"T0"})})
    assert purge(family, {"e1"}) == frozenset({frozenset({"T0"})})


def test_purge_with_no_empty_labels_is_identity():
    family = frozenset({frozenset({"T0"}), frozenset({"T0", "T1"})})
    assert purge(family, frozenset()) == family


def test_purge_is_idempotent():
    family = frozenset({frozenset({"T0", "e1", "e2"}), frozenset({"e1"})})
    once = purge(family, {"e1", "e2"})
    assert purge(once, {"e1", "e2"}) == once


def test_table_1_mapping():
    table = find_equivalence_mapping(fixture_net("fig8_old"),
                                     fixture_net("fig8_new"))
    assert {key: set(eq) for key, eq in table.rows} == TABLE_1


def test_table_1_change_region():
    table = find_equivalence_mapping(fixture_net("fig8_old"),
                                     fixture_net("fig8_new"))
    assert change_region(table) == {k for k, v in TABLE_1.items() if not v}


def test_old_net_marking_count():
    g = build_reachability(fixture_net("fig8_old"))
    assert sorted(g.keys()) == sorted(TABLE_1)


def test_identity_migration(fig4_net, sequence_net):
    for net in (sequence_net, fig4_net, fixture_net("fig8_old"),
                par_redo_net(2, 2)):
        table = find_equivalence_mapping(net, net)
        assert change_region(table) == set()
        for key, eq in table.rows:
            assert key in eq


def test_disjoint_labels_only_initials_match(sequence_net):
    other = WFNet(places=["q1", "q2"], transitions=["U0"],
                  arcs=[("q1", "U0"), ("U0", "q2")])
    table = find_equivalence_mapping(sequence_net, other)
    assert dict(table.rows)["p1"] == ("q1",)
    assert dict(table.rows)["p2"] == ()
    assert dict(table.rows)["p3"] == ()


def test_empty_after_purge_matches_initial():
    # a marking reached only through an empty helper is equivalent to
    # markings with the empty trace
    new = WFNet(places=["q1", "q2", "q3"],
                transitions=[Transition("e", is_empty=True),
                             Transition("T0")],
                arcs=[("q1", "e"), ("e", "q2"), ("q2", "T0"), ("T0", "q3")])
    old = WFNet(places=["p1", "p2"], transitions=["T0"],
                arcs=[("p1", "T0"), ("T0", "p2")])
    table = find_equivalence_mapping(old, new)
    assert dict(table.rows)["p1"] == ("q1", "q2")


@pytest.mark.parametrize("seed", range(10))
def test_mapping_matches_oracle(seed):
    old = random_wfnet(GenParams(seed=seed, max_places=6, max_transitions=7))
    new = random_wfnet(GenParams(seed=seed + 1000, max_places=6,
                                 max_transitions=7))
    for pair in ((old, new), (with_empty_transitions(old, seed),
                              with_empty_transitions(new, seed + 1000))):
        table = find_equivalence_mapping(*pair)
        expected = oracle_mapping(*pair)
        assert {key: set(eq) for key, eq in table.rows} == expected


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_is_symmetric(seed):
    a = random_wfnet(GenParams(seed=seed, max_places=6, max_transitions=7))
    b = random_wfnet(GenParams(seed=seed + 500, max_places=6,
                               max_transitions=7))
    forward = find_equivalence_mapping(a, b)
    backward = find_equivalence_mapping(b, a)
    pairs_fwd = {(x, y) for x, eq in forward.rows for y in eq}
    pairs_bwd = {(x, y) for y, eq in backward.rows for x in eq}
    assert pairs_fwd == pairs_bwd


def test_initials_match_when_acyclic_and_no_empties():
    a = random_wfnet(GenParams(seed=3, loop_probability=0.0))
    b = random_wfnet(GenParams(seed=4, loop_probability=0.0))
    table = find_equivalence_mapping(a, b)
    ga = build_reachability(a)
    gb = build_reachability(b)
    assert gb.key(gb.initial) in dict(table.rows)[ga.key(ga.initial)]


def test_rows_are_sorted():
    table = find_equivalence_mapping(fixture_net("fig8_old"),
                                     fixture_net("fig8_new"))
    keys = [key for key, _ in table.rows]
    assert keys == sorted(keys)
    for _, eq in table.rows:
        assert list(eq) == sorted(eq)


# Label names that can collide with the generator's own labels (T0, T1, ...)
# and hold spaces and non-ASCII characters, never ','.
LABELS = st.text(alphabet="T01 \xe9\u4e2d", min_size=1, max_size=3)


def _rename_labels(net, to):
    rename = {label: to[label] for label in net.labels}
    return WFNet(net.places,
                 [Transition(rename[t.label], t.is_empty)
                  for t in net.transitions],
                 [(rename.get(a, a), rename.get(b, b)) for a, b in net.arcs],
                 net.initial_marking, name=net.name)


@st.composite
def relabeled_pairs(draw):
    """A generator pair with about 30% empty transitions, and the same pair
    with one injective renaming of the labels of both nets."""
    seeds = draw(st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=2))
    pair = [with_empty_transitions(random_wfnet(GenParams(seed=seed)), seed)
            for seed in seeds]
    labels = sorted(pair[0].labels | pair[1].labels)
    places = pair[0].places | pair[1].places
    names = draw(st.lists(LABELS.filter(lambda n: n not in places),
                          min_size=len(labels), max_size=len(labels),
                          unique=True))
    to = dict(zip(labels, names))
    return pair, [_rename_labels(net, to) for net in pair]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(relabeled_pairs())
def test_renaming_labels_in_both_nets_leaves_the_table_unchanged(pairs):
    (old, new), (renamed_old, renamed_new) = pairs
    assert (find_equivalence_mapping(renamed_old, renamed_new)
            == find_equivalence_mapping(old, new))


def test_both_nets_number_label_bits_in_one_order():
    # T2 is regular in the old net and empty in the new one; T3 and W4
    # exist only in the old net, H and UT3 only in the new one; H sorts
    # before every old label and UT3 between two of them, so a bit number
    # taken from either net's own label list names different labels in the
    # two nets.  Both reach {T1, W4}: p3 and q4 must match through it.
    old = WFNet(places=["p0", "p1", "p2", "p3"],
                transitions=["T1", "T2", "T3", "W4"],
                arcs=[("p0", "T1"), ("T1", "p1"), ("p1", "T2"), ("T2", "p2"),
                      ("p2", "T3"), ("T3", "p3"), ("p1", "W4"), ("W4", "p3")])
    new = WFNet(places=["q0", "q1", "q2", "q3", "q4"],
                transitions=["T1", Transition("T2", is_empty=True),
                             Transition("H", is_empty=True), "UT3", "W4"],
                arcs=[("q0", "T1"), ("T1", "q1"), ("q1", "T2"), ("T2", "q2"),
                      ("q2", "H"), ("H", "q3"), ("q3", "UT3"), ("UT3", "q4"),
                      ("q3", "W4"), ("W4", "q4")])
    table = find_equivalence_mapping(old, new)
    assert {key: set(eq) for key, eq in table.rows} == oracle_mapping(old, new)
    assert dict(table.rows) == {"p0": ("q0",), "p1": ("q1", "q2", "q3"),
                                "p2": (), "p3": ("q4",)}


@st.composite
def generator_pairs(draw):
    """Two generator nets with about 30% empty transitions each."""
    seeds = draw(st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=2))
    return [with_empty_transitions(random_wfnet(GenParams(seed=seed)), seed)
            for seed in seeds]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(generator_pairs())
def test_identity_migration_lists_every_marking_among_its_equivalents(pair):
    for net in pair:
        for key, eq in find_equivalence_mapping(net, net).rows:
            assert key in eq, key


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(generator_pairs())
def test_mapping_backward_is_the_transpose_of_mapping_forward(pair):
    a, b = pair
    forward = find_equivalence_mapping(a, b)
    backward = find_equivalence_mapping(b, a)
    assert ({(x, y) for x, eq in forward.rows for y in eq}
            == {(x, y) for y, eq in backward.rows for x in eq})


@st.composite
def pairs_and_label_orders(draw):
    """A generator pair as ``generator_pairs`` draws it, and a permutation
    of the sorted union of its labels."""
    pair = draw(generator_pairs())
    labels = sorted(pair[0].labels | pair[1].labels)
    return pair, draw(st.permutations(labels))


def _decoded(families, labels):
    return {node: {frozenset(mask_names(labels, member)) for member in family}
            for node, family in families.items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pairs_and_label_orders())
def test_label_order_changes_no_family_and_no_row(drawn):
    """Both closures under any one order of the union labels: decoded, the
    families are those of sorted order, and joined as ints, they give
    ``find_equivalence_mapping``'s rows."""
    pair, order = drawn
    graphs = [build_reachability(net) for net in pair]
    old_f, new_f = [tts_all(g, net.empty_labels, order)
                    for g, net in zip(graphs, pair)]
    for g, net, families in zip(graphs, pair, (old_f, new_f)):
        assert _decoded(families, order) == _decoded(
            tts_all(g, net.empty_labels, sorted(order)), sorted(order))
    old_g, new_g = graphs
    new_keys = new_g.keys()
    rows = sorted((key, tuple(sorted(new_keys[m] for m in new_g.nodes
                                     if new_f[m] & old_f[node])))
                  for node, key in enumerate(old_g.keys()))
    assert tuple(rows) == find_equivalence_mapping(*pair).rows


# ---------------------------------------------------------------------------
# Alphabet pruning: ``find_equivalence_mapping``'s closures follow no trace
# that fires a label the other net lacks, and must give the rows of whole
# closures.

BENCH_INPUTS = bench_inputs()
# random_wfnet's size and probabilities in the map-loops workload
MAP_LOOPS_SHAPE = (10, 12, 0.5, 0.0)


def _edited_pair(seed, shape=MAP_LOOPS_SHAPE, share=0):
    """The generator net of ``seed`` and a copy edited as the map-loops
    workload edits it: one task ``T<i>`` renamed ``UT<i>``, a redo dropped
    or added, and an empty helper put in series on an arc.  With a
    ``share``, about that share of the generator net's transitions are
    declared empty before the edit, in both nets."""
    old = BENCH_INPUTS._from_wfnet(with_empty_transitions(
        random_wfnet(GenParams(seed, *shape)), seed, share))
    new = BENCH_INPUTS.edited_copy(old, random.Random(seed))
    return [parse_net(doc.to_json()) for doc in (old, new)]


def _unpruned_mapping(old_net, new_net):
    """The rows of whole closures, over the union of both nets' labels,
    joined through the ``holders`` index as ``find_equivalence_mapping``
    joins them."""
    old_g, new_g = build_reachability(old_net), build_reachability(new_net)
    order = sorted(old_net.labels | new_net.labels)
    holders = {}
    for node, family in tts_all(new_g, new_net.empty_labels, order).items():
        for member in family:
            holders.setdefault(member, []).append(node)
    new_keys = new_g.keys()
    rows = []
    for node, family in tts_all(old_g, old_net.empty_labels, order).items():
        matches = {m for member in family for m in holders.get(member, ())}
        rows.append((old_g.key(node),
                     tuple(sorted(new_keys[m] for m in matches))))
    return MappingTable(tuple(sorted(rows)))


@st.composite
def edited_pairs(draw):
    """A map-loops pair, at map-loops' generator shape or at the default
    one (which has parallel blocks), with or without empty labels."""
    return _edited_pair(draw(st.integers(0, 10 ** 6)),
                        draw(st.sampled_from([MAP_LOOPS_SHAPE,
                                              (8, 10, 0.2, 0.3)])),
                        draw(st.sampled_from([0, 0.3])))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edited_pairs())
def test_pruned_mapping_equals_the_unpruned_join(pair):
    """Both directions; no family the mapping's closures return holds a
    negative member."""
    old, new = pair
    families = []

    def recorded(*args, **kwargs):
        result = tts_all(*args, **kwargs)
        families.extend(result.values())
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "tts_all", recorded)
        for a, b in ((old, new), (new, old)):
            assert find_equivalence_mapping(a, b) == _unpruned_mapping(a, b)
    assert families
    assert all(member >= 0 for family in families for member in family)


def test_pruning_cuts_the_closures_of_a_renamed_pair(monkeypatch):
    """The map-loops pair of seed 7: T10 becomes UT10, the redo T5 is
    dropped and the helper e0 goes in.  Whole closures hold 69 states in
    the old net and 38 in the new one; ``map``'s closures take the labels
    both nets share, leaving out T10 and T5 of the old net and UT10 of the
    new one, and then hold 9 and 10."""
    old, new = _edited_pair(7)
    old_g, new_g = build_reachability(old), build_reachability(new)
    order = sorted(old.labels | new.labels)
    assert [sum(map(len, tts_all(g, net.empty_labels, order).values()))
            for g, net in ((old_g, old), (new_g, new))] == [69, 38]

    states = []

    def counted(*args, **kwargs):
        families = tts_all(*args, **kwargs)
        states.append((args[2], sum(map(len, families.values()))))
        return families

    monkeypatch.setattr(equivalence, "tts_all", counted)
    table = find_equivalence_mapping(old, new)
    shared = sorted((old.labels - old.empty_labels)
                    & (new.labels - new.empty_labels))
    assert not {"T10", "T5", "UT10"} & set(shared)
    assert states == [(shared, 10), (shared, 9)]     # new, old
    assert table == _unpruned_mapping(old, new)


def _blocks_left_by(calls):
    """How many more blocks are allocated after mapping each pair of
    ``calls`` with the collector off, as ``cli.main`` runs, than before.
    A full collection first empties CPython's free lists."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = sys.getallocatedblocks()
        for old, new in calls:
            find_equivalence_mapping(old, new)
        return sys.getallocatedblocks() - start
    finally:
        if enabled:
            gc.enable()


def _tuple_of_a_generator(items):
    return tuple(item for item in items)


def test_mapping_leaves_no_blocks_behind_with_the_collector_off(
        monkeypatch):
    """1,000 mappings of map-loops pairs with the collector off leave
    behind under a fifth of the blocks that the same calls leave when each
    tuple the join makes is made from a generator, measured in the same
    process.  CPython makes a tuple of an iterator of no known length at
    a guessed size and resizes it, and the resized tuples pile up in its
    tuple free lists, which only a full collection empties: made from
    generators, the join's tuples left about 4,800 more blocks per 1,000
    calls on Python 3.11."""
    pairs = [(parse_net(old), parse_net(new)) for _, old, new
             in BENCH_INPUTS.map_loops_pairs(7, str(FIXTURES))]
    calls = [pairs[i % len(pairs)] for i in range(1000)]
    for old, new in pairs[:100]:            # caches first
        find_equivalence_mapping(old, new)
    grown = _blocks_left_by(calls)
    monkeypatch.setattr(equivalence, "tuple", _tuple_of_a_generator,
                        raising=False)
    trapped = _blocks_left_by(calls)
    assert grown * 5 < trapped, (grown, trapped)
