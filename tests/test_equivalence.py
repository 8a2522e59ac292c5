import pytest

from wfmig import (WFNet, build_reachability, change_region,
                   find_equivalence_mapping, purge)
from wfmig.oracle import GenParams, random_wfnet

from conftest import (fixture_net, oracle_mapping, par_redo_net,
                      with_empty_transitions)

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
    assert sorted(g.nodes) == sorted(TABLE_1)


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
    from wfmig import Transition
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
    assert gb.initial in dict(table.rows)[ga.initial]


def test_rows_are_sorted():
    table = find_equivalence_mapping(fixture_net("fig8_old"),
                                     fixture_net("fig8_new"))
    keys = [key for key, _ in table.rows]
    assert keys == sorted(keys)
    for _, eq in table.rows:
        assert list(eq) == sorted(eq)
