"""Brute-force ground truth and a random sound-net generator.

``oracle_tts`` enumerates bounded firing walks directly on the reachability
graph and collects their label sets.  It deliberately shares no code with
the seed-path/cycle machinery it is used to check; the only graph features
it relies on are the adjacency lists.
"""

import random
from dataclasses import dataclass

from .errors import BoundTooSmallError
from .net import Transition, WFNet, key_label


def _components(graph):
    """Strongly connected component of each node, named by one of its
    members (Kosaraju's two passes, with explicit stacks)."""
    finished = []
    seen = set()
    for root in graph.nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph.succ[root]))]
        while stack:
            node, rest = stack[-1]
            for edge in rest:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append((edge.dst, iter(graph.succ[edge.dst])))
                    break
            else:
                stack.pop()
                finished.append(node)
    back = graph.pred()
    component = {}
    for root in reversed(finished):
        if root in component:
            continue
        component[root] = root
        stack = [root]
        while stack:
            for src in back[stack.pop()]:
                if src not in component:
                    component[src] = root
                    stack.append(src)
    return component


def _cycle_length_total(graph):
    """Sum of lengths of all elementary circuits, by plain path extension.

    Each circuit is counted once, rooted at its smallest node (only larger
    nodes are entered while extending), and lies inside one strongly
    connected component, so no other component is entered."""
    component = _components(graph)
    total = 0
    for start in sorted(graph.nodes):
        own = component[start]
        stack = [(start, frozenset())]
        while stack:
            node, on_path = stack.pop()
            for edge in graph.succ[node]:
                if edge.dst == start:
                    total += len(on_path) + 1
                elif (edge.dst > start and edge.dst not in on_path
                      and component[edge.dst] == own):
                    stack.append((edge.dst, on_path | {edge.dst}))
    return total


def _longest_simple_path(graph, target):
    """Length of the longest elementary path from the initial node to
    ``target`` (0 when target is the initial node); -1 if unreachable."""
    best = -1
    stack = [(graph.initial, frozenset({graph.initial}))]
    while stack:
        node, on_path = stack.pop()
        if node == target:
            # elementary paths end at their first arrival
            best = max(best, len(on_path) - 1)
            continue
        for edge in graph.succ[node]:
            if edge.dst not in on_path:
                stack.append((edge.dst, on_path | {edge.dst}))
    return best


def sufficiency_bound(graph, node):
    """Smallest walk-length bound guaranteed to realize every TTS of the node:
    the longest elementary path to it plus the total length of all cycles
    (one traversal of each absorbed cycle per walk suffices)."""
    longest = _longest_simple_path(graph, node)
    if longest < 0:
        return 0
    return longest + _cycle_length_total(graph)


def oracle_tts(graph, node, bound=None):
    """Label sets of all walks from the initial node to ``node`` of length at
    most ``bound`` (default: the sufficiency bound, making the result the
    complete TTS family).

    Raises BoundTooSmallError when an explicit bound is below the
    sufficiency bound.  States (node, label set) already seen with at least
    as much remaining budget are pruned, which never changes the answer.
    """
    needed = sufficiency_bound(graph, node)
    if bound is None:
        bound = needed
    elif bound < needed:
        raise BoundTooSmallError(
            "bound %d is below the sufficiency bound %d for node %s"
            % (bound, needed, key_label(node)))

    found = set()
    best = {}  # (node, labelset) -> largest remaining budget seen
    stack = [(graph.initial, frozenset(), bound)]
    while stack:
        here, labels, budget = stack.pop()
        state = (here, labels)
        if best.get(state, -1) >= budget:
            continue
        best[state] = budget
        if here == node:
            found.add(labels)
        if budget == 0:
            continue
        for edge in graph.succ[here]:
            stack.append((edge.dst, labels | {edge.label}, budget - 1))
    return frozenset(found)


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    max_places: int = 8
    max_transitions: int = 10
    loop_probability: float = 0.2
    parallel_probability: float = 0.3


class _NetBuilder:
    """Expands a worklist of (entry place, exit place) block slots.

    Every pending slot still costs at least one transition, so a composite
    pattern is committed only when the budget covers its own additions plus
    one transition per slot that will remain pending.  That keeps
    max_places / max_transitions hard limits.
    """

    def __init__(self, params):
        self.rng = random.Random(params.seed)
        self.params = params
        self.places = []
        self.transitions = []
        self.arcs = []

    def place(self):
        name = "p%d" % len(self.places)
        self.places.append(name)
        return name

    def task(self, inputs, outputs):
        label = "T%d" % len(self.transitions)
        self.transitions.append(Transition(label))
        for p in inputs:
            self.arcs.append((p, label))
        for p in outputs:
            self.arcs.append((label, p))
        return label

    def build(self, entry, exit_):
        pending = [(entry, exit_)]
        while pending:
            slot_entry, slot_exit = pending.pop(0)

            def room(add_places, add_transitions, slots_after):
                return (len(self.places) + add_places
                        <= self.params.max_places
                        and len(self.transitions) + add_transitions
                        + len(pending) + slots_after
                        <= self.params.max_transitions)

            r = self.rng.random()
            p = self.params
            if r < p.loop_probability and room(2, 3, 1):
                # entry -> a ~body~ b -> exit, with a redo transition b -> a
                a = self.place()
                b = self.place()
                self.task([slot_entry], [a])
                self.task([b], [slot_exit])
                self.task([b], [a])
                pending.append((a, b))
            elif (r < p.loop_probability + p.parallel_probability
                  and room(4, 2, 2)):
                # fork into two concurrent branches, then join
                a1, a2, b1, b2 = (self.place() for _ in range(4))
                self.task([slot_entry], [a1, b1])
                self.task([a2, b2], [slot_exit])
                pending.append((a1, a2))
                pending.append((b1, b2))
            elif r < 0.75 and room(1, 0, 2):
                # sequence of two sub-blocks
                mid = self.place()
                pending.append((slot_entry, mid))
                pending.append((mid, slot_exit))
            elif r < 0.9 and room(0, 0, 2):
                # exclusive choice between two alternative sub-blocks
                pending.append((slot_entry, slot_exit))
                pending.append((slot_entry, slot_exit))
            else:
                self.task([slot_entry], [slot_exit])


def random_wfnet(params):
    """A structurally and behaviorally valid random workflow net, built
    compositionally from sequence, choice, parallel, and loop blocks.
    Deterministic in the seed."""
    if params.max_transitions < 1 or params.max_places < 2:
        raise ValueError("need at least 2 places and 1 transition")
    b = _NetBuilder(params)
    source = b.place()
    sink = b.place()
    b.build(source, sink)
    return WFNet(b.places, b.transitions, b.arcs,
                 initial_marking={source}, name="random-%d" % params.seed)
