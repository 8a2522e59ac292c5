import pytest

from wfmig import (GenParams, NetFormatError, Transition, UnsafeNetError,
                   WFNet, random_wfnet, validate_structural)

from conftest import FIXTURE_NAMES, fixture_net, par_redo_net
from reference import NotEnabledError, enabled, fire


def test_sequence_net_is_valid(sequence_net):
    report = validate_structural(sequence_net)
    assert report.ok
    assert report.violations == ()


def test_fig2b_reports_not_on_path():
    report = validate_structural(fixture_net("fig2b"))
    assert not report.ok
    assert "NOT_ON_PATH" in report.codes()
    assert "P1" in {v.element for v in report.violations
                    if v.code == "NOT_ON_PATH"}


def test_two_arcless_places_report_multiple_sources_and_sinks():
    net = WFNet(places=["a", "b"], transitions=[], arcs=[])
    codes = validate_structural(net).codes()
    assert "MULTIPLE_SOURCES" in codes
    assert "MULTIPLE_SINKS" in codes


def test_no_source_and_no_sink():
    # every place has both an incoming and an outgoing arc
    net = WFNet(places=["a", "b"], transitions=["t", "u"],
                arcs=[("a", "t"), ("t", "b"), ("b", "u"), ("u", "a")])
    codes = validate_structural(net).codes()
    assert codes == {"NO_SOURCE", "NO_SINK"}


def test_explicit_initial_marking_must_be_the_source(sequence_net):
    net = WFNet(places=["p1", "p2", "p3"], transitions=["T0", "T1"],
                arcs=[("p1", "T0"), ("T0", "p2"), ("p2", "T1"), ("T1", "p3")],
                initial_marking={"p2"})
    assert "BAD_INITIAL_MARKING" in validate_structural(net).codes()
    assert validate_structural(sequence_net).ok
    assert sequence_net.initial_marking == {"p1"}


def test_enabled_sequence(sequence_net):
    assert enabled(sequence_net, frozenset({"p1"})) == {"T0"}
    assert enabled(sequence_net, frozenset({"p2"})) == {"T1"}
    assert enabled(sequence_net, frozenset()) == set()


def test_and_join_needs_all_inputs():
    net = WFNet(places=["p1", "p2", "p3", "p4"], transitions=["s", "j"],
                arcs=[("p1", "s"), ("s", "p2"), ("s", "p3"),
                      ("p2", "j"), ("p3", "j"), ("j", "p4")])
    assert enabled(net, frozenset({"p2"})) == set()
    assert enabled(net, frozenset({"p2", "p3"})) == {"j"}
    # AND split produces both output tokens
    assert fire(net, frozenset({"p1"}), "s") == {"p2", "p3"}


def test_fire_sequence(sequence_net):
    assert fire(sequence_net, frozenset({"p1"}), "T0") == {"p2"}


def test_fire_not_enabled(sequence_net):
    with pytest.raises(NotEnabledError):
        fire(sequence_net, frozenset({"p2"}), "T0")


def test_fire_unsafe():
    # t outputs to p3, which can already hold a token it does not consume
    net = WFNet(places=["p1", "p2", "p3", "p4"], transitions=["s", "t", "u"],
                arcs=[("p1", "s"), ("s", "p2"), ("s", "p3"),
                      ("p2", "t"), ("t", "p3"),
                      ("p3", "u"), ("u", "p4")])
    marking = fire(net, frozenset({"p1"}), "s")
    assert marking == {"p2", "p3"}
    with pytest.raises(UnsafeNetError):
        fire(net, marking, "t")


def test_self_loop_place_fires_to_same_token_count():
    net = WFNet(places=["p1", "p2", "p3"], transitions=["t", "u"],
                arcs=[("p1", "t"), ("t", "p1"), ("t", "p2"),
                      ("p2", "u"), ("p1", "u"), ("u", "p3")])
    assert fire(net, frozenset({"p1"}), "t") == {"p1", "p2"}


def test_enabled_iff_fire_succeeds(fig4_net):
    markings = [frozenset({"P1"}), frozenset({"P2"}), frozenset({"P3"}),
                frozenset(), frozenset({"P5", "P6"})]
    for m in markings:
        for t in fig4_net.transitions:
            if t.label in enabled(fig4_net, m):
                # absent a 1-boundedness clash, an enabled transition fires
                try:
                    fire(fig4_net, m, t.label)
                except UnsafeNetError:
                    pass
            else:
                with pytest.raises(NotEnabledError):
                    fire(fig4_net, m, t.label)


def test_validate_structural_is_pure(fig6_net):
    assert (validate_structural(fig6_net)
            == validate_structural(fixture_net("fig6")))


def test_constructor_rejects_duplicate_names():
    with pytest.raises(NetFormatError) as err:
        WFNet(places=["p", "p"], transitions=[], arcs=[])
    assert err.value.code == "DUPLICATE_NAME"
    with pytest.raises(NetFormatError) as err:
        WFNet(places=["p"], transitions=["p"], arcs=[])
    assert err.value.code == "DUPLICATE_NAME"
    with pytest.raises(NetFormatError) as err:
        WFNet(places=["p"], transitions=[Transition("t"), Transition("t")],
              arcs=[])
    assert err.value.code == "DUPLICATE_NAME"


def test_constructor_rejects_bad_arcs():
    with pytest.raises(NetFormatError) as err:
        WFNet(places=["a", "b"], transitions=["t"], arcs=[("a", "b")])
    assert err.value.code == "NON_BIPARTITE_ARC"
    with pytest.raises(NetFormatError) as err:
        WFNet(places=["a"], transitions=["t"], arcs=[("a", "nope")])
    assert err.value.code == "UNKNOWN_ENDPOINT"


def test_constructor_reads_an_iterator_of_places_once():
    arcs = [("s", "t"), ("t", "e"), ("a,b", "u"), ("u", "e")]
    places = ["s", "a,b", "e", "e"]
    with pytest.raises(NetFormatError) as from_list:
        WFNet(places, ["t", "u"], arcs)
    with pytest.raises(NetFormatError) as from_iter:
        WFNet(iter(places), ["t", "u"], arcs)
    assert from_iter.value.code == from_list.value.code == "PARSE_ERROR"
    assert str(from_iter.value) == str(from_list.value)


def test_empty_transitions_fire_like_ordinary_ones():
    net = WFNet(places=["p1", "p2"],
                transitions=[Transition("e", is_empty=True)],
                arcs=[("p1", "e"), ("e", "p2")])
    assert net.empty_labels == {"e"}
    assert fire(net, frozenset({"p1"}), "e") == {"p2"}


def test_grouped_arcs_match_the_arc_list():
    """The presets and postsets the constructor groups hold what
    ``net.arcs`` says, once each."""
    nets = [fixture_net(name) for name in FIXTURE_NAMES]
    nets += [par_redo_net(k, n) for k, n in [(1, 1), (2, 2), (3, 6)]]
    nets += [random_wfnet(GenParams(seed=seed)) for seed in range(50)]
    for net in nets:
        assert net.source_places() == net.places - {b for _, b in net.arcs}
        assert net.sink_places() == net.places - {a for a, _ in net.arcs}
        assert set(net._pre) == set(net._post) == net.places | net.labels
        for node in net._pre:
            assert sorted(net._pre[node]) == sorted(a for a, b in net.arcs
                                                    if b == node)
            assert sorted(net._post[node]) == sorted(b for a, b in net.arcs
                                                     if a == node)
