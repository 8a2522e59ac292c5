"""Trace transition sets (TTSs).

For a reachability-graph node, the family of TTSs is the set of distinct
transition-label sets over all firing traces from the initial node to it.
Traces may be infinite in number (loops), but the family is finite.
``tts_all``, the engine ``map`` and ``tts`` run, computes it by a forward
closure over the int graph that can leave a net's empty labels out as it
walks.  Its members are ints: a TTS is a bitmask over one explicit label
order, bit ``i`` for the ``i``-th label.  ``map`` gives both nets the
sorted union of their labels, so equal label sets are equal ints across
the nets; ``tts`` uses the net's own sorted labels and decodes the masks
only to print them (``reachability.mask_names``).  The closure's (node,
member) states can grow exponentially with the net, so it counts them and
stops past a limit (``TtsLimitError``, ``--max-tts-states``).

The paper's construction stays as the reference the tests check: elementary
seed paths absorb every elementary cycle touching a node already covered,
until a fixpoint (``tts_for_node``).  It walks the same int graph by node
and edge id, a path or a cycle being a tuple of edge ids, and gives
frozensets of label strings.  Its depth-first walks keep explicit stacks,
so a path of any length fits.  No command runs it; it stays in the package
because the benchmark's traced run wraps three of its functions here.
"""

from collections import namedtuple

from .errors import TtsLimitError
from .reachability import DEFAULT_MAX_TTS_STATES


def label_set(graph, edges):
    """The labels the edge ids fire, as a frozenset of strings."""
    labels, lab = graph.labels, graph.lab
    return frozenset(labels[lab[e]] for e in edges)


class Cycle(namedtuple("Cycle", "edges node_set")):
    """An elementary circuit: its edge ids in canonical rotation, the first
    edge leaving the smallest node id on the cycle, and its node ids."""

    __slots__ = ()


class EdgeSet(namedtuple("EdgeSet", "edges nodes")):
    """A seed path's edges unioned with zero or more absorbed cycles.

    ``nodes`` carries every node the set covers; for the empty seed path it
    still holds the path's single node, which is what cycles attach to.
    """

    __slots__ = ()

    @classmethod
    def from_path(cls, graph, path, start):
        return cls(frozenset(path),
                   frozenset([start] + [graph.dst[e] for e in path]))

    def absorb(self, cycle):
        return EdgeSet(self.edges | frozenset(cycle.edges),
                       self.nodes | cycle.node_set)


def _elementary_paths(graph, start, target, floor=-1):
    """Depth-first over the elementary paths from ``start``, each node's
    edges taken in CSR order, which is label order: yields, for every edge
    into ``target``, the path's edge ids ending in that edge and the set of
    nodes on the path (``start`` included, ``target`` not unless it is
    ``start``; the set is live, so copy it to keep it).  A path extends
    only into nodes above ``floor`` and not yet on it.  One iterator of
    out-edges per path node is held on an explicit stack, so the depth is
    bounded by memory, not by the interpreter's recursion limit."""
    off, to = graph.off, graph.dst
    path, on_path = [], {start}
    stack = [iter(range(off[start], off[start + 1]))]
    while stack:
        for edge in stack[-1]:
            nxt = to[edge]
            if nxt == target:
                yield tuple(path) + (edge,), on_path
            elif nxt > floor and nxt not in on_path:
                path.append(edge)
                on_path.add(nxt)
                stack.append(iter(range(off[nxt], off[nxt + 1])))
                break
        else:       # every edge of the last node is done: step back
            stack.pop()
            if path:
                on_path.discard(to[path.pop()])


# kept in the package: bench/tracer.py wraps it by module attribute
def find_simple_paths(graph, src, dst):
    """All elementary (node-repetition-free) directed paths from src to dst.

    Deterministic order: depth-first, each node's edges taken in CSR order,
    which is label order.  ``src == dst`` yields exactly the empty path.
    """
    if src == dst:
        return [()]
    return [path for path, _ in _elementary_paths(graph, src, dst)]


# kept in the package: bench/tracer.py wraps it by module attribute
def find_cycles(graph):
    """All elementary circuits of the graph, each in canonical rotation.

    Path-extension enumeration: from each node, grow elementary paths
    through strictly larger node ids only, closing back to the start node.
    Parallel edges with different labels yield distinct cycles; a self-loop
    edge is a length-1 cycle.
    """
    return frozenset(Cycle(path, frozenset(on_path))
                     for start in graph.nodes
                     for path, on_path in _elementary_paths(graph, start,
                                                            start, start))


def attachable_cycles(edge_set, cycles):
    """Cycles sharing at least one node with the covered node set."""
    return {c for c in cycles if c.node_set & edge_set.nodes}


# kept in the package: bench/tracer.py wraps it by module attribute
def expand_with_cycles(seeds, cycles):
    """Least fixpoint of cycle absorption over the seed edge sets.

    Worklist over EdgeSets; every attachable cycle produces a candidate
    union, and candidates already seen are never re-enqueued, so the run
    terminates inside the finite powerset of edges.
    """
    ordered_cycles = sorted(cycles, key=lambda c: c.edges)
    seen = set(seeds)
    worklist = list(seeds)
    while worklist:
        current = worklist.pop()
        for cycle in ordered_cycles:
            if not cycle.node_set & current.nodes:
                continue
            candidate = current.absorb(cycle)
            if candidate not in seen:
                seen.add(candidate)
                worklist.append(candidate)
    return seen


def tts_for_node(graph, node, cycles=None):
    """The complete TTS family of one node, as a frozenset of frozensets."""
    if cycles is None:
        cycles = find_cycles(graph)
    seeds = [EdgeSet.from_path(graph, p, graph.initial)
             for p in find_simple_paths(graph, graph.initial, node)]
    expanded = expand_with_cycles(seeds, cycles)
    return frozenset(label_set(graph, es.edges) for es in expanded)


def tts_all(graph, ignore=frozenset(), order=None, nodes=None,
            max_states=DEFAULT_MAX_TTS_STATES):
    """TTS families by node id, each a set of int members: a worklist
    closure over (node, member) states from (initial, 0) along the CSR
    edges.  Bit ``i`` of a member stands for label ``order[i]`` (default
    ``graph.labels``, which is sorted); ``order`` must hold every label of
    the graph.  An edge leads to (dst, member | its label's bit), and a
    label in ``ignore`` has no bit, so it adds nothing.  Each state reached
    at a node is one of its TTSs with the ``ignore`` labels left out, and
    each TTS is one member, so the member count is the TTS count.

    ``nodes``, if given, must hold the initial node and every predecessor
    of each of its nodes, as the ancestors of a node do.  Only the nodes in
    ``nodes`` get a family, an edge into any other node is skipped, and the
    families returned, those of ``nodes``, are the same as in the whole
    graph.

    Raises TtsLimitError when the states, counted once each as they are
    added, would exceed ``max_states``."""
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    position = {label: i for i, label in enumerate(
        graph.labels if order is None else order)}
    bits = [0 if label in ignore else 1 << position[label]
            for label in graph.labels]
    off, lab, dst = graph.off, graph.lab, graph.dst
    held = graph.nodes if nodes is None else sorted(nodes)
    families = [None] * len(graph.nodes)    # None: no family, edge skipped
    for node in held:
        families[node] = set()
    families[graph.initial].add(0)
    worklist = [(graph.initial, 0)]
    budget = max_states - 1                 # states still allowed
    while worklist:
        node, labels = worklist.pop()
        for e in range(off[node], off[node + 1]):
            family = families[dst[e]]
            if family is None:
                continue
            reached = labels | bits[lab[e]]
            if reached not in family:
                if not budget:
                    raise TtsLimitError("TTS closure exceeds %d states"
                                        % max_states)
                budget -= 1
                family.add(reached)
                worklist.append((dst[e], reached))
    return {node: families[node] for node in held}
