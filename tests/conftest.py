import functools
import importlib.util
import pathlib
import random

import pytest

from wfmig import (GenParams, MappingTable, Transition, WFNet,
                   build_reachability, find_equivalence_mapping, parse_net,
                   random_wfnet, tts_all)
from wfmig.equivalence import purge
from wfmig.reachability import mask_names

from reference import oracle_tts

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
# the reference nets, by file stem
FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))

# a net document naming a place by a lone surrogate, which cannot be printed
SURROGATE = ('{"places": ["s", "\\ud800", "e"], "transitions": ["t", "u"],'
             ' "arcs": [["s", "t"], ["t", "e"], ["\\ud800", "u"],'
             ' ["u", "e"]]}')
# a net document holding an integer over the interpreter's int-string limit
# (4,300 digits), which json.loads raises as a plain ValueError
LONG_INT = ('{"places": [%s], "transitions": [], "arcs": []}'
            % ("1" * 5000))


def long_sequence_net(n):
    """p0 -T1-> p1 -T2-> ... -Tn-> pn."""
    arcs = []
    for i in range(1, n + 1):
        arcs += [("p%d" % (i - 1), "T%d" % i), ("T%d" % i, "p%d" % i)]
    return WFNet(["p%d" % i for i in range(n + 1)],
                 ["T%d" % i for i in range(1, n + 1)], arcs,
                 name="sequence-%d" % n)


def par_net(k, n):
    """A fork into k branches of n tasks each, then a join."""
    places, labels = ["s", "e"], ["fork", "join"]
    arcs = [("s", "fork"), ("join", "e")]
    for b in range(k):
        branch = ["b%d_%d" % (b, i) for i in range(n + 1)]
        places += branch
        arcs += [("fork", branch[0]), (branch[-1], "join")]
        for i in range(n):
            labels.append("T%d_%d" % (b, i))
            arcs += [(branch[i], labels[-1]), (labels[-1], branch[i + 1])]
    return WFNet(places, labels, arcs, name="par-%d-%d" % (k, n))


def par_redo_net(k, n):
    """``par_net(k, n)`` with a redo transition per branch, from its last
    place back to its first."""
    net = par_net(k, n)
    redo = ["R%d" % b for b in range(k)]
    arcs = [arc for b, r in enumerate(redo)
            for arc in (("b%d_%d" % (b, n), r), (r, "b%d_0" % b))]
    return WFNet(sorted(net.places), list(net.transitions) + redo,
                 sorted(net.arcs) + arcs, name="par-redo-%d-%d" % (k, n))


def choice_net(m, n):
    """A choice at s between m branches of n tasks each, all ending in e.
    In sorted place order s comes last, so its m transitions all belong to
    its bit, the highest one."""
    places, labels, arcs = ["s", "e"], [], []
    for b in range(m):
        branch = ["s"] + ["p%d_%d" % (b, i) for i in range(1, n)] + ["e"]
        places += branch[1:-1]
        for i in range(n):
            labels.append("t%d_%d" % (b, i))
            arcs += [(branch[i], labels[-1]), (labels[-1], branch[i + 1])]
    return WFNet(places, labels, arcs, name="choice-%d-%d" % (m, n))


def shuffled_names(net, seed):
    """The same net with its place names permuted among the places and its
    labels among the transitions, by a seeded RNG: the same structure,
    numbered in another sorted order."""
    rng = random.Random(seed)
    places, labels = sorted(net.places), list(net.sorted_labels)
    to = dict(zip(places, rng.sample(places, len(places))))
    to.update(zip(labels, rng.sample(labels, len(labels))))
    return WFNet([to[p] for p in places],
                 [Transition(to[t.label], t.is_empty)
                  for t in net.transitions],
                 [(to[a], to[b]) for a, b in net.arcs],
                 [to[p] for p in net.initial_marking], name=net.name)


def with_empty_transitions(net, seed, share=0.3):
    """The same net with about ``share`` of its transitions re-declared
    empty, chosen by a seeded RNG; it fires exactly like ``net``."""
    rng = random.Random(seed)
    return WFNet(net.places,
                 [Transition(t.label, rng.random() < share)
                  for t in net.transitions],
                 net.arcs, net.initial_marking, name=net.name)


def helper_sequence_net(n):
    """A sequence of n empty helpers: every marking's purged family is
    {{}}, so each of the n + 1 rows of its map against itself lists all
    n + 1 markings."""
    return with_empty_transitions(long_sequence_net(n), 0, share=1)


@functools.cache
def emit_cases():
    """(old net, new net, mapping table) triples the emitters are checked
    on against their references: every ordered fixture pair, 40 generator
    pairs with empty transitions, two self-maps whose rows list many
    markings, and hand-made tables with the empty marking, a change-region
    row, no rows, and names holding JSON specials."""
    nets = [fixture_net(name) for name in FIXTURE_NAMES]
    pairs = [(old, new) for old in nets for new in nets]
    for seed in range(40):
        pairs.append(tuple(
            with_empty_transitions(random_wfnet(GenParams(seed=s)), s)
            for s in (seed, seed + 5000)))
    pairs += [(helper_sequence_net(300),) * 2, (par_redo_net(3, 4),) * 2]
    cases = [(old, new, find_equivalence_mapping(old, new))
             for old, new in pairs]
    odd = WFNet(["s", "e"], ["t"], [("s", "t"), ("t", "e")],
                name='q"\\ \xe9\u4e2d\U0001f600\n')
    cases += [(odd, odd, MappingTable(rows)) for rows in [
        (),
        (("", ()),),                                  # a change-region row
        (("", ("",)), ("a", ("", "b,c"))),            # the empty marking
        (('b\\s,q"x', ('q"x', '\xe9,\u4e2d\U0001f600')),
         ("\x7f\t", ('b\\s', "\x00"))),
    ]]
    return tuple(cases)


def oracle_mapping(old_net, new_net):
    """Brute-force ground truth for ``find_equivalence_mapping``: each old
    marking against every new marking whose purged ``oracle_tts`` family
    shares a member with its own, both named by key as the table names
    them."""
    old_g = build_reachability(old_net)
    new_g = build_reachability(new_net)
    old_fams = [purge(oracle_tts(old_g, n), old_net.empty_labels)
                for n in old_g.nodes]
    new_fams = [purge(oracle_tts(new_g, n), new_net.empty_labels)
                for n in new_g.nodes]
    old_keys, new_keys = old_g.keys(), new_g.keys()
    return {old_keys[n]: {new_keys[m] for m in new_g.nodes
                          if new_fams[m] & old_fams[n]}
            for n in old_g.nodes}


def label_families(graph, ignore=frozenset()):
    """``tts_all``'s families by node id, each member decoded from its
    label mask to a frozenset of labels, as the reference code and the
    oracle give them."""
    return {node: frozenset(frozenset(mask_names(graph.labels, member))
                            for member in family)
            for node, family in tts_all(graph, ignore).items()}


def bench_inputs():
    """``bench/inputs.py``, the benchmark's input generator, loaded from
    its file: ``edited_copy`` is the edit the map-loops workload makes."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_path(name):
    return str(FIXTURES / ("%s.json" % name))


def fixture_net(name):
    """The reference net ``fixtures/<name>.json``, parsed as the CLI
    parses it."""
    with open(fixture_path(name), encoding="utf-8") as handle:
        return parse_net(handle.read())


@pytest.fixture
def sequence_net():
    return fixture_net("sequence")


@pytest.fixture
def fig4_net():
    return fixture_net("fig4")


@pytest.fixture
def fig6_net():
    return fixture_net("fig6")
