import pytest

from wfmig import (GenParams, build_reachability, random_wfnet,
                   serialize_net, validate_behavioral, validate_structural)
from wfmig.tts import find_cycles, find_simple_paths, label_set

from conftest import long_sequence_net, par_redo_net
from reference import (BoundTooSmallError, _cycle_length_total, oracle_tts,
                       sufficiency_bound)


def test_fig4_p2_with_explicit_bound(fig4_net):
    g = build_reachability(fig4_net)
    family = oracle_tts(g, g.keys().index("P2"), bound=9)
    assert family == {
        frozenset({"T0"}),
        frozenset({"T0", "T1", "T2", "T3", "T4"}),
        frozenset({"T0", "T1", "T5", "T6", "T4"}),
        frozenset({"T0", "T1", "T2", "T5", "T3", "T6", "T4"}),
    }


def test_fig4_sufficiency_bound(fig4_net):
    # longest elementary path to P2 is 1, total cycle length is 4 + 4
    g = build_reachability(fig4_net)
    assert sufficiency_bound(g, g.keys().index("P2")) == 9


def test_bound_below_sufficiency_rejected(fig4_net):
    g = build_reachability(fig4_net)
    with pytest.raises(BoundTooSmallError) as err:
        oracle_tts(g, g.keys().index("P2"), bound=8)
    # the marking is named by its key, not by its node id
    assert str(err.value) == ("bound 8 is below the sufficiency bound 9 "
                              "for node {P2}")


def test_sufficiency_bound_on_a_deep_sequence():
    g = build_reachability(long_sequence_net(1200))
    assert sufficiency_bound(g, g.keys().index("p1200")) == 1200


def test_cycle_length_total_equals_enumerated_cycles():
    nets = [par_redo_net(2, 2)] + [random_wfnet(GenParams(
        seed=seed, max_places=10, max_transitions=12, loop_probability=0.5,
        parallel_probability=0)) for seed in range(100)]
    for net in nets:
        g = build_reachability(net)
        assert _cycle_length_total(g) == sum(
            len(c.edges) for c in find_cycles(g)), net.name


def test_sequence_terminal(sequence_net):
    g = build_reachability(sequence_net)
    assert oracle_tts(g, g.keys().index("p3"), bound=2) == {frozenset({"T0", "T1"})}


@pytest.mark.parametrize("seed", range(10))
def test_acyclic_oracle_equals_elementary_path_label_sets(seed):
    net = random_wfnet(GenParams(seed=seed, loop_probability=0.0))
    g = build_reachability(net)
    for node in g.nodes:
        expected = {label_set(g, p)
                    for p in find_simple_paths(g, g.initial, node)}
        assert oracle_tts(g, node) == expected


def test_generator_is_deterministic():
    params = GenParams(seed=1, max_places=4)
    assert serialize_net(random_wfnet(params)) == serialize_net(
        random_wfnet(params))


def test_generator_respects_limits():
    for seed in range(50):
        net = random_wfnet(GenParams(seed=seed, max_places=7,
                                     max_transitions=9))
        assert len(net.places) <= 7
        assert len(net.transitions) <= 9


def test_generated_nets_are_valid():
    for seed in range(100):
        net = random_wfnet(GenParams(seed=seed))
        assert validate_structural(net).ok, seed
        g = build_reachability(net)
        assert validate_behavioral(g).ok, seed


def test_zero_loop_probability_gives_acyclic_graphs():
    for seed in range(50):
        net = random_wfnet(GenParams(seed=seed, loop_probability=0.0))
        assert find_cycles(build_reachability(net)) == frozenset()
