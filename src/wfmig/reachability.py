"""Reachability graph of a 1-bounded workflow net, plus behavioral checks.

A node's key is its marking: the comma-joined sorted list of marked place
names (names cannot contain ``,``), and the graph keeps no other form of it.
An edge is a plain ``(src, label, dst)`` triple.  Construction is
breadth-first with successors expanded in sorted transition-label order, so
equal nets always produce identical graphs.

The breadth-first search plays the token game on ints: each place is one
bit, in sorted place order, and each transition has a ``pre`` and a
``post`` mask.  A transition is enabled at marking ``m`` when
``m & pre == pre`` and leads to ``(m & ~pre) | post``.  Only the consumers
of the marked places, and the transitions with an empty preset, are tried
at a marking.  The key string is built once per marking, when it is first
found.  ``net.enabled`` and ``net.fire`` are the frozenset form of the same
game, kept as the reference the kernel is tested against; a firing that
would break 1-boundedness is reported here, with the same message.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import StateLimitError, UnsafeNetError
from .net import ValidationReport, Violation, _reach, key_label, marking_key

DEFAULT_MAX_STATES = 100000


class RGEdge(NamedTuple):
    """One labeled marking transition; identity and order are the triple's."""

    src: str
    label: str
    dst: str


@dataclass(frozen=True)
class ReachGraph:
    nodes: tuple            # node keys in first-discovered order
    edges: tuple            # RGEdge in discovery order
    initial: str
    terminal: str           # key of the {sink} marking, or None
    succ: dict = field(compare=False)      # key -> tuple of outgoing RGEdge

    def pred(self):
        """Predecessor keys of each key, computed on demand."""
        back = {n: [] for n in self.nodes}
        for src, _, dst in self.edges:
            back[dst].append(src)
        return back


def build_reachability(net, max_states=DEFAULT_MAX_STATES):
    """Breadth-first exploration of all reachable markings.

    Raises StateLimitError if more than ``max_states`` markings are found and
    UnsafeNetError if any firing violates 1-boundedness.
    """
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    bit, place_of, consumers = {}, {}, {}
    for i, p in enumerate(sorted(net.places)):
        bit[p] = 1 << i
        place_of[1 << i] = p
        consumers[1 << i] = []
    free = []       # empty preset: enabled at every marking
    trans = []      # (label, pre, post) in sorted label order
    for i, t in enumerate(net.transitions):
        pre = post = 0
        for p in net.inputs(t.label):
            pre |= bit[p]
            consumers[bit[p]].append(i)
        for p in net.outputs(t.label):
            post |= bit[p]
        trans.append((t.label, pre, post))
        if not pre:
            free.append(i)

    def discover(m):
        """Key of a new marking and its candidate transitions in sorted
        label order.  Bits are in place order, so the places come out
        sorted and their join is ``marking_key``."""
        places, cands = [], set(free)
        while m:
            low = m & -m
            places.append(place_of[low])
            cands.update(consumers[low])
            m ^= low
        return ",".join(places), [trans[i] for i in sorted(cands)]

    m0 = sum(bit[p] for p in net.initial_marking)
    init_key, cands = discover(m0)
    key_of = {m0: init_key}
    order = [init_key]
    edges = []
    succ = {}
    queue = deque([(m0, init_key, cands)])
    while queue:
        m, key, cands = queue.popleft()
        out = []
        for label, pre, post in cands:
            if m & pre != pre:
                continue
            rest = m ^ pre
            if post & rest:  # name the clashing places as a key names them
                raise UnsafeNetError("net is not 1-bounded: firing %r would "
                                     "put a second token in %s"
                                     % (label, discover(post & rest)[0]))
            nxt = rest | post
            nxt_key = key_of.get(nxt)
            if nxt_key is None:
                if len(order) + 1 > max_states:
                    raise StateLimitError(
                        "reachability exceeds %d states" % max_states)
                nxt_key, nxt_cands = discover(nxt)
                key_of[nxt] = nxt_key
                order.append(nxt_key)
                queue.append((nxt, nxt_key, nxt_cands))
            out.append(RGEdge(key, label, nxt_key))
        edges.extend(out)
        succ[key] = tuple(out)

    sinks = net.sink_places()
    term_key = marking_key(sinks)
    terminal = term_key if len(sinks) == 1 and term_key in succ else None
    return ReachGraph(nodes=tuple(order), edges=tuple(edges),
                      initial=init_key, terminal=terminal, succ=succ)


def validate_behavioral(net, graph):
    """Soundness checks on the finished graph.

    DEAD_TRANSITION: transition labels no edge.  NO_PROPER_COMPLETION: the
    terminal marking is unreachable from a node (deadlocks included; if there
    is no terminal node at all, every node is flagged).
    """
    violations = []
    fired = {e.label for e in graph.edges}
    for t in net.transitions:
        if t.label not in fired:
            violations.append(Violation(
                "DEAD_TRANSITION", "never enabled in any reachable marking",
                t.label))

    can_finish = (set() if graph.terminal is None
                  else _reach({graph.terminal}, graph.pred()))
    for key in graph.nodes:
        if key not in can_finish:
            violations.append(Violation(
                "NO_PROPER_COMPLETION",
                "terminal marking is unreachable from this marking",
                key_label(key)))
    return ValidationReport(tuple(violations))


def to_dot(graph):
    """Render the graph as DOT text, byte-deterministic (canonical order).
    Node names are ``key_label`` forms, written inline; ``\\`` and ``"``
    in names and labels are escaped, once per name."""
    esc = {name: name.replace("\\", "\\\\").replace('"', '\\"')
           for name in {*graph.nodes, *(e.label for e in graph.edges)}}
    order = sorted(graph.nodes)
    lines = ["digraph reachability {"]
    lines.extend(['  "{%s}";' % esc[key] for key in order])
    # edges in (src, label, dst) order, sorted one source at a time
    lines.extend(['  "{%s}" -> "{%s}" [label="%s"];'
                  % (esc[src], esc[dst], esc[lab])
                  for key in order
                  for src, lab, dst in sorted(graph.succ[key])])
    lines.append("}\n")
    return "\n".join(lines)
