"""Reference code the tests check the package against: the token game on
frozenset markings, with presets and postsets read from ``net.arcs``, and
the reachability BFS built on it; the brute-force TTS oracle, on the int
graph's CSR out-edges and ``pred`` only.  It imports nothing from
``wfmig.tts`` or ``wfmig.equivalence``, the code it is the ground truth
for."""

from collections import deque

from wfmig.errors import StateLimitError, UnsafeNetError, WfmigError
from wfmig.net import key_label, marking_key
from wfmig.reachability import DEFAULT_MAX_STATES


class NotEnabledError(WfmigError):
    """A transition was fired from a marking in which it is not enabled."""

    code = "NOT_ENABLED"


class BoundTooSmallError(WfmigError):
    """Oracle enumeration was asked to use a bound below the sufficiency bound."""

    code = "BOUND_TOO_SMALL"


def _arc_maps(net):
    """The input and the output places of every transition, read off
    ``net.arcs``: built once per net, not once per firing."""
    pre = {label: set() for label in net.labels}
    post = {label: set() for label in net.labels}
    for a, b in net.arcs:
        if b in pre:
            pre[b].add(a)
        else:
            post[a].add(b)
    return pre, post


def _enabled(pre, marking):
    return {label for label, ins in pre.items() if ins <= marking}


def _fire(pre, post, marking, label):
    # a label the net lacks has no arcs, as when they were read per firing
    ins = pre.get(label, frozenset())
    if not ins <= marking:
        raise NotEnabledError("transition %r is not enabled in %s"
                              % (label, key_label(marking_key(marking))))
    outs = post.get(label, frozenset())
    clash = outs & (marking - ins)
    if clash:
        raise UnsafeNetError("net is not 1-bounded: firing %r would put a "
                             "second token in %s"
                             % (label, marking_key(clash)))
    return (marking - ins) | outs


def enabled(net, marking):
    """Transitions whose every input place is marked."""
    return _enabled(_arc_maps(net)[0], marking)


def fire(net, marking, label):
    """Fire a transition: consume input tokens, produce output tokens.

    Raises NotEnabledError if some input place is unmarked, and
    UnsafeNetError, with the message ``build_reachability`` gives, if an
    output place would receive a second token (1-boundedness violation).
    Self-loop places are consumed and re-produced.
    """
    return _fire(*_arc_maps(net), marking, label)


def reference_reachability(net, max_states=DEFAULT_MAX_STATES):
    """BFS that checks every transition at every marking as ``enabled``
    does and builds every successor as ``fire`` does, from presets and
    postsets read off ``net.arcs`` once.  Gives the marking keys in
    discovery order, each one's ``(label, successor key)`` list in firing
    order, and the initial and terminal keys."""
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    init_key = marking_key(net.initial_marking)
    marking = {init_key: net.initial_marking}
    order, succ = [init_key], []
    pre, post = _arc_maps(net)
    queue = deque([init_key])
    while queue:
        key = queue.popleft()
        out = []
        for label in sorted(_enabled(pre, marking[key])):
            nxt = _fire(pre, post, marking[key], label)
            nxt_key = marking_key(nxt)
            if nxt_key not in marking:
                if len(order) + 1 > max_states:
                    raise StateLimitError(
                        "reachability exceeds %d states" % max_states)
                marking[nxt_key] = nxt
                order.append(nxt_key)
                queue.append(nxt_key)
            out.append((label, nxt_key))
        succ.append(out)
    sink_key = marking_key(net.sink_places())
    terminal = (sink_key if len(net.sink_places()) == 1
                and sink_key in marking else None)
    return order, succ, init_key, terminal


def _targets(graph, node):
    """Destination ids of the node's out-edges, one per edge."""
    return graph.dst[graph.off[node]:graph.off[node + 1]]


def _components(graph):
    """Strongly connected component of each node, named by one of its
    members (Kosaraju's two passes, with explicit stacks)."""
    finished = []
    seen = set()
    for root in graph.nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(_targets(graph, root)))]
        while stack:
            node, rest = stack[-1]
            for nxt in rest:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(_targets(graph, nxt))))
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
    for start in graph.nodes:
        own = component[start]
        stack = [(start, frozenset())]
        while stack:
            node, on_path = stack.pop()
            for nxt in _targets(graph, node):
                if nxt == start:
                    total += len(on_path) + 1
                elif (nxt > start and nxt not in on_path
                      and component[nxt] == own):
                    stack.append((nxt, on_path | {nxt}))
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
        for nxt in _targets(graph, node):
            if nxt not in on_path:
                stack.append((nxt, on_path | {nxt}))
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
            % (bound, needed, key_label(graph.key(node))))

    names, off, lab, dst = graph.labels, graph.off, graph.lab, graph.dst
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
        for edge in range(off[here], off[here + 1]):
            stack.append((dst[edge], labels | {names[lab[edge]]},
                          budget - 1))
    return frozenset(found)
