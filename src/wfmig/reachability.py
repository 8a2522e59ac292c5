"""Reachability graph of a 1-bounded workflow net, plus behavioral checks.

The graph is held as ints (``ReachGraph``): a marking is a bitmask, one bit
per place in sorted place order, its node id is its rank in breadth-first
discovery order, and the edges are in CSR form (compressed sparse row).
Successors are expanded in sorted label order and a transition gives at
most one edge per source, so each source's edges come out in strictly
increasing label order and equal nets always produce identical graphs.

A node's key (``marking_key``: its places, comma-joined; names cannot
contain ``,``) is its only text form, built on demand where output, an
error message or a ``--marking`` lookup needs it.  This one form is the
graph every reader walks: the engines, and the reference code the tests
check them against (the paper's fixpoint, the oracle in
``tests/reference.py``).  The DOT export is one generator of lines
(``dot_lines``), which ``reach --dot`` writes as they come; ``to_dot``
joins them.

The breadth-first search plays the token game on ints: each transition has
a ``pre`` and a ``post`` mask, fires at marking ``m`` when
``m & (pre | post) == pre`` (enabled, and no second token in any place) and
leads to ``m ^ (pre ^ post)``.  Enabling is incremental (K. Wolf,
"Generating Petri Net State Spaces", ICATPN 2007).  Each transition has
one candidate bit, the highest for the first label in sorted order, and
belongs to the first place its preset lists, since it can only be enabled
where that place is marked; one with an empty preset is a candidate
everywhere.  A marking's candidate mask holds the bits its marked places
own, and a successor's is its parent's XOR ``flip``, the bits owned by the
places the firing turns (``pre ^ post``: a place in both keeps its token).
Expanding a marking walks its candidate bits from the highest down, by
``bit_length``, which is label order with no per-marking gather and no
sort.  A candidate that fails the test with ``m & pre == pre`` is enabled
and would put a second token in a marked place: the net is not 1-bounded
(``UnsafeNetError``).  ``tests/reference.py`` plays the frozenset form of
the same game, the reference the kernel is tested against, and reports
that firing with the same message.
"""

from bisect import bisect_left
from collections import deque

from .errors import StateLimitError, UnsafeNetError
from .net import ValidationReport, Violation, _reach, key_label

DEFAULT_MAX_STATES = 100000
# The default of ``tts_all``'s (marking, TTS) state limit, kept here beside
# ``DEFAULT_MAX_STATES`` so the argument parser reads it without importing
# ``tts``.  Of the ``random_wfnet`` nets with up to 24 places and 36
# transitions (seeds 0-19), the largest closure that ``map`` finishes under
# a 700 MB address-space limit holds 4.26e6 states (seed 5).  Reaching 5e6
# states takes about 350 MB and 7-13 s (Python 3.11, one core of a 2-vCPU
# host).
DEFAULT_MAX_TTS_STATES = 5000000


def mask_names(names, mask):
    """The names of the set bits of ``mask``, bit ``i`` naming
    ``names[i]``, in bit order.  Comma-joined over ``places``, it gives the
    key of a marking mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(names[low.bit_length() - 1])
        mask ^= low
    return out


class ReachGraph:
    """Reachability graph over int node ids.

    ``places`` and ``labels`` are sorted; ``masks[i]`` is node ``i``'s
    marking.  The out-edges of node ``i`` are ``off[i]`` to ``off[i + 1]``;
    edge ``e`` fires ``labels[lab[e]]`` to node ``dst[e]``.  ``initial`` is
    0 and ``terminal`` is the id of the {sink} marking, or None.  ``nodes``
    and ``edges`` are the ranges of node and edge ids."""

    def __init__(self, places, labels, masks, off, lab, dst, terminal):
        self.places = places
        self.labels = labels
        self.masks = masks
        self.off = off
        self.lab = lab
        self.dst = dst
        self.initial = 0
        self.terminal = terminal

    @property
    def nodes(self):
        return range(len(self.masks))

    @property
    def edges(self):
        return range(len(self.dst))

    def key(self, node):
        """Key of one node, without building the others."""
        return ",".join(mask_names(self.places, self.masks[node]))

    def keys(self):
        """Key of every node, by id."""
        return [",".join(mask_names(self.places, m)) for m in self.masks]

    def find(self, marking):
        """Id of a marking given as place names, or None if it is not
        reachable (a place the net lacks included); a scan of ``masks``."""
        mask = 0
        for p in marking:
            i = bisect_left(self.places, p)
            if i == len(self.places) or self.places[i] != p:
                return None
            mask |= 1 << i
        try:
            return self.masks.index(mask)
        except ValueError:
            return None

    def pred(self):
        """Predecessor ids of each id, computed on demand."""
        back = [[] for _ in self.masks]
        off, dst = self.off, self.dst
        for node in self.nodes:
            for d in dst[off[node]:off[node + 1]]:
                back[d].append(node)
        return back

    def ancestors(self, node):
        """The ids of the nodes ``node`` is reachable from, itself and the
        initial node included, as a set."""
        return _reach({node}, self.pred())


def build_reachability(net, max_states=DEFAULT_MAX_STATES):
    """Breadth-first exploration of all reachable markings.

    Raises StateLimitError if more than ``max_states`` markings are found and
    UnsafeNetError if any firing violates 1-boundedness.
    """
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    places = tuple(sorted(net.places))
    bit = {p: 1 << i for i, p in enumerate(places)}
    labels = net.sorted_labels
    last = len(labels)
    pre_of, post_of = net._pre, net._post
    # own[p]: the candidate bits of the transitions whose preset lists p
    # first, bit k - 1 (bit_length k) standing for labels[last - k]; free:
    # those of the transitions with an empty preset, candidates everywhere
    own = dict.fromkeys(places, 0)
    free = 0
    c = 1
    for label in reversed(labels):
        ins = pre_of[label]
        if ins:
            own[ins[0]] |= c
        else:
            free |= c
        c <<= 1
    # rows[k]: the label index, the bit, and the masks pre, pre | post and
    # pre ^ post; flip[k]: own XORed over the preset and the postset, so a
    # place in both cancels.  One input and one output place is the usual
    # transition, and the quick case, whose two masks are one int
    rows, flip = [None], [0]
    t, c = last, 1
    for label in reversed(labels):
        t -= 1
        ins, outs = pre_of[label], post_of[label]
        if len(ins) == len(outs) == 1:
            p, q = ins[0], outs[0]
            pre = bit[p]
            need = pre | bit[q]
            turn = need if p != q else 0
            flip.append(own[p] ^ own[q])
        else:
            pre = post = f = 0
            for p in ins:
                pre |= bit[p]
                f ^= own[p]
            for p in outs:
                post |= bit[p]
                f ^= own[p]
            need, turn = pre | post, pre ^ post
            flip.append(f)
        rows.append((t, c, pre, need, turn))
        c <<= 1

    m0, cands = 0, free
    for p in net.initial_marking:
        m0 |= bit[p]
        cands |= own[p]
    queue = deque([cands])
    del own     # an int as wide as the label count per place: not kept
    masks, index = [m0], {m0: 0}
    off, lab, dst = [0], [], []
    n = 1           # len(masks), counted: one call fewer per edge
    for m in masks:     # the list grows as markings are found: a BFS queue
        cands = queue.popleft()
        rest = cands
        while rest:     # highest bit first: in label order
            k = rest.bit_length()
            t, c, pre, need, turn = rows[k]
            rest ^= c
            if m & need != pre:     # not enabled, or it would clash
                if m & pre != pre:
                    continue
                # name the clashing places as a key names them
                clash = ",".join(mask_names(places, m & need ^ pre))
                raise UnsafeNetError("net is not 1-bounded: firing %r would "
                                     "put a second token in %s"
                                     % (labels[t], clash))
            nxt = m ^ turn
            j = index.setdefault(nxt, n)   # one hash per edge
            if j == n:
                if n >= max_states:
                    raise StateLimitError(
                        "reachability exceeds %d states" % max_states)
                masks.append(nxt)
                n += 1
                queue.append(cands ^ flip[k])
            lab.append(t)
            dst.append(j)
        off.append(len(dst))

    sinks = net.sink_places()
    terminal = index.get(bit[min(sinks)]) if len(sinks) == 1 else None
    return ReachGraph(places, labels, masks, off, lab, dst, terminal)


def validate_behavioral(graph):
    """Soundness checks on the finished graph.

    DEAD_TRANSITION: transition labels no edge.  NO_PROPER_COMPLETION: the
    terminal marking is unreachable from a node (deadlocks included; if there
    is no terminal node at all, every node is flagged).  Keys are built for
    the flagged nodes only.
    """
    violations = []
    fired = set(graph.lab)
    for t, label in enumerate(graph.labels):
        if t not in fired:
            violations.append(Violation(
                "DEAD_TRANSITION", "never enabled in any reachable marking",
                label))

    can_finish = (set() if graph.terminal is None
                  else graph.ancestors(graph.terminal))
    for node in graph.nodes:
        if node not in can_finish:
            violations.append(Violation(
                "NO_PROPER_COMPLETION",
                "terminal marking is unreachable from this marking",
                key_label(graph.key(node))))
    return ValidationReport(tuple(violations))


def dot_lines(graph):
    """The graph as DOT text, one line at a time, each ending in a newline;
    byte-deterministic (canonical order): nodes by key, then each source's
    edges in label order, which is their CSR order.  Node names are the
    ``key_label`` forms of the keys, with ``\\`` and ``"`` escaped, as are
    the labels; each name is made once.  The keys and names are built up
    front, the lines one by one, so a caller can write them as they come."""
    keys = graph.keys()
    name = [key_label(k.replace("\\", "\\\\").replace('"', '\\"'))
            for k in keys]
    label = [t.replace("\\", "\\\\").replace('"', '\\"')
             for t in graph.labels]
    off, lab, dst = graph.off, graph.lab, graph.dst
    order = sorted(graph.nodes, key=keys.__getitem__)
    yield "digraph reachability {\n"
    for node in order:
        yield '  "%s";\n' % name[node]
    for node in order:
        source = name[node]
        for e in range(off[node], off[node + 1]):
            yield '  "%s" -> "%s" [label="%s"];\n' % (
                source, name[dst[e]], label[lab[e]])
    yield "}\n"


# kept in the package: bench/tracer.py wraps it by module attribute
def to_dot(graph):
    """The whole DOT text of ``dot_lines``, as one string."""
    return "".join(dot_lines(graph))
