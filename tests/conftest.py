import pathlib
import random

import pytest

from wfmig import Transition, WFNet, fixtures

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# a net document naming a place by a lone surrogate, which cannot be printed
SURROGATE = ('{"places": ["s", "\\ud800", "e"], "transitions": ["t", "u"],'
             ' "arcs": [["s", "t"], ["t", "e"], ["\\ud800", "u"],'
             ' ["u", "e"]]}')


def long_sequence_net(n):
    """p0 -T1-> p1 -T2-> ... -Tn-> pn."""
    arcs = []
    for i in range(1, n + 1):
        arcs += [("p%d" % (i - 1), "T%d" % i), ("T%d" % i, "p%d" % i)]
    return WFNet(["p%d" % i for i in range(n + 1)],
                 ["T%d" % i for i in range(1, n + 1)], arcs,
                 name="sequence-%d" % n)


def par_redo_net(k, n):
    """A fork into k branches of n tasks each, then a join; every branch
    has a redo transition from its last place back to its first."""
    places, labels = ["s", "e"], ["fork", "join"]
    arcs = [("s", "fork"), ("join", "e")]
    for b in range(k):
        branch = ["b%d_%d" % (b, i) for i in range(n + 1)]
        places += branch
        arcs += [("fork", branch[0]), (branch[-1], "join")]
        for i in range(n):
            labels.append("T%d_%d" % (b, i))
            arcs += [(branch[i], labels[-1]), (labels[-1], branch[i + 1])]
        labels.append("R%d" % b)
        arcs += [(branch[-1], labels[-1]), (labels[-1], branch[0])]
    return WFNet(places, labels, arcs, name="par-redo-%d-%d" % (k, n))


def with_empty_transitions(net, seed, share=0.3):
    """The same net with about ``share`` of its transitions re-declared
    empty, chosen by a seeded RNG; it fires exactly like ``net``."""
    rng = random.Random(seed)
    return WFNet(net.places,
                 [Transition(t.label, rng.random() < share)
                  for t in net.transitions],
                 net.arcs, net.initial_marking, name=net.name)


@pytest.fixture
def fixture_path():
    def lookup(name):
        return str(FIXTURES / ("%s.json" % name))
    return lookup


@pytest.fixture
def sequence_net():
    return fixtures.sequence_net()


@pytest.fixture
def fig4_net():
    return fixtures.fig4_net()


@pytest.fixture
def fig6_net():
    return fixtures.fig6_net()
