"""Reachability graph of a 1-bounded workflow net, plus behavioral checks.

The graph is held as ints (``ReachGraph``): a marking is a bitmask, one bit
per place in sorted place order, its node id is its rank in breadth-first
discovery order, and the edges are in CSR form (compressed sparse row).
Successors are expanded in sorted label order and a transition gives at
most one edge per source, so each source's edges come out in strictly
increasing label order and equal nets always produce identical graphs.

A node's key (``marking_key``: its places, comma-joined; names cannot
contain ``,``) is its only text form, built on demand where output, an
error message or a ``--marking`` lookup needs it.  One walk decodes every
mask, of places or of labels (``decode_masks``): from the highest bit
down, over two tables made once per batch, so a caller with many masks
decodes them in one call.  This one form is the graph every reader
walks: the engines, and the reference code the tests check them against
(the paper's fixpoint, the oracle in ``tests/reference.py``).  The DOT
export is a generator of pieces of about ``PIECE_LINES`` lines each
(``dot_lines``), joined where the lines are made, which ``reach --dot``
writes as they come; ``to_dot`` joins them.

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
# dot_lines joins its lines into pieces of about this many
PIECE_LINES = 1024


def _escape(name):
    """A name as a DOT string holds it: ``\\`` and ``"`` escaped."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def decode_masks(names, masks):
    """The names of the set bits of each mask of ``masks``, bit ``i``
    naming ``names[i]``: one list per mask, in bit order, made as it is
    asked for.  Comma-joined over ``places``, a list is the key of a
    marking mask.  One walk serves every mask: from the highest bit down,
    by ``bit_length``, over two tables made once per call, ``at[k]`` the
    name and ``top[k]`` the bit of ``bit_length`` ``k``."""
    at = (None,) + tuple(names)
    top = [0] + [1 << i for i in range(len(names))]
    for m in masks:
        out = []
        while m:
            k = m.bit_length()
            out.append(at[k])
            m ^= top[k]
        out.reverse()
        yield out


def mask_names(names, mask):
    """The names of the set bits of one mask (``decode_masks``)."""
    return next(decode_masks(names, (mask,)))


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
        return self.keys((node,))[0]

    def keys(self, nodes=None):
        """Key of every node, by id, or of each of ``nodes`` in turn:
        decoded in one batch (``decode_masks``)."""
        masks = (self.masks if nodes is None
                 else [self.masks[node] for node in nodes])
        return list(map(",".join, decode_masks(self.places, masks)))

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
    the flagged nodes only, in one batch.
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
    stuck = [node for node in graph.nodes if node not in can_finish]
    for key in graph.keys(stuck):
        violations.append(Violation(
            "NO_PROPER_COMPLETION",
            "terminal marking is unreachable from this marking",
            key_label(key)))
    return ValidationReport(tuple(violations))


def dot_lines(graph):
    """The graph as DOT text, in pieces of about ``PIECE_LINES`` whole
    lines, each line ending in a newline; byte-deterministic (canonical
    order): nodes by key, then each source's edges in label order, which is
    their CSR order.  Node names are the ``key_label`` forms of the keys,
    with ``\\`` and ``"`` escaped, as are the labels; each name is made
    once, and is the key itself where no place name holds either
    character (``,`` needs no escape, so a key escapes place by place).
    The keys and names are built up front and the lines piece by piece,
    so a caller can write the pieces as they come and no whole text is
    held."""
    keys = graph.keys()
    name = keys
    if any("\\" in p or '"' in p for p in graph.places):
        name = [_escape(k) for k in keys]
    label = [_escape(t) for t in graph.labels]
    off, lab, dst = graph.off, graph.lab, graph.dst
    order = sorted(graph.nodes, key=keys.__getitem__)
    lines = ["digraph reachability {\n"]
    for node in order:
        lines.append(f'  "{{{name[node]}}}";\n')
        if len(lines) >= PIECE_LINES:
            yield "".join(lines)
            lines = []
    for node in order:
        source = name[node]
        for e in range(off[node], off[node + 1]):
            lines.append(f'  "{{{source}}}" -> "{{{name[dst[e]]}}}" '
                         f'[label="{label[lab[e]]}"];\n')
        if len(lines) >= PIECE_LINES:
            yield "".join(lines)
            lines = []
    lines.append("}\n")
    yield "".join(lines)


# kept in the package: bench/tracer.py wraps it by module attribute
def to_dot(graph):
    """The whole DOT text of ``dot_lines``, as one string."""
    return "".join(dot_lines(graph))
