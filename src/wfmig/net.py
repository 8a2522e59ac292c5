"""Workflow-net core: net structure, markings, the token game, structural checks.

A marking is a plain ``frozenset`` of place names; nets are 1-bounded so a
place either holds a token or it does not.  Its one text form is its key,
the comma-joined sorted place names (``marking_key``), printed in braces
(``key_label``).  All types are immutable after construction and every
operation here is a pure function.
"""

from collections import Counter, deque
from dataclasses import dataclass

from .errors import NetFormatError, NotEnabledError, UnsafeFiringError


def _repeated(items):
    return min(item for item, n in Counter(items).items() if n > 1)


def marking_key(marking):
    """Canonical node key for a marking (sorted, comma-joined place names)."""
    return ",".join(sorted(marking))


def key_label(key):
    """Human-readable form of a node key, e.g. ``{p2,p6}``."""
    return "{%s}" % key


@dataclass(frozen=True)
class Transition:
    """A labeled transition.  ``is_empty`` marks helper transitions that are
    ignored when trace transition sets are compared across nets; they fire
    exactly like ordinary transitions."""

    label: str
    is_empty: bool = False


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    element: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return {v.code for v in self.violations}


class WFNet:
    """A workflow-net candidate: places, transitions, bipartite arcs.

    The constructor enforces well-formedness (an initial marking of declared
    places, known arc endpoints, bipartite arcs, unique names that encode as
    UTF-8 and hold no ``,``, place names without leading or trailing
    whitespace, no arc and no initial place listed twice); workflow-net
    structure (unique source/sink, every node on a source-to-sink path) is
    checked by :func:`validate_structural` and reported, not raised.  Place
    names and transition labels share one namespace, and one ``_pre`` and
    one ``_post`` map over it hold the arcs: the nodes one arc before and
    one arc after each place or label.
    """

    def __init__(self, places, transitions, arcs, initial_marking=None, name=""):
        self.name = name
        places = list(places)
        self.places = frozenset(places)
        if initial_marking is not None:
            initial_list = list(initial_marking)
            initial_marking = frozenset(initial_list)
            unknown = initial_marking - self.places
            if unknown:
                raise NetFormatError("initial marking names unknown place %r"
                                     % min(unknown), code="UNKNOWN_ENDPOINT")
        trans = []
        for t in transitions:
            trans.append(t if isinstance(t, Transition) else Transition(str(t)))
        self.transitions = tuple(sorted(trans, key=lambda t: t.label))

        seen = set()
        for p in places:
            if not p:
                raise NetFormatError("empty place name", code="PARSE_ERROR")
            if "," in p:
                # marking keys and --marking arguments are comma-joined
                raise NetFormatError("place name contains ',': %r" % p,
                                     code="PARSE_ERROR")
            if p != p.strip():
                # --marking arguments are stripped name by name
                raise NetFormatError("place name has leading or trailing "
                                     "whitespace: %r" % p, code="PARSE_ERROR")
            if p.encode("utf-8", "replace").decode("utf-8") != p:
                # a lone surrogate cannot be printed
                raise NetFormatError("place name does not encode as UTF-8: "
                                     "%r" % p, code="PARSE_ERROR")
            if p in seen:
                raise NetFormatError("duplicate place name: %r" % p,
                                     code="DUPLICATE_NAME")
            seen.add(p)
        for t in self.transitions:
            if not t.label:
                raise NetFormatError("empty transition label", code="PARSE_ERROR")
            if "," in t.label:
                # tts lines comma-join labels
                raise NetFormatError("transition label contains ',': %r"
                                     % t.label, code="PARSE_ERROR")
            if t.label.encode("utf-8", "replace").decode("utf-8") != t.label:
                raise NetFormatError("transition label does not encode as "
                                     "UTF-8: %r" % t.label, code="PARSE_ERROR")
            if t.label in seen:
                raise NetFormatError("duplicate name: %r" % t.label,
                                     code="DUPLICATE_NAME")
            seen.add(t.label)

        self.labels = frozenset(t.label for t in self.transitions)
        self.empty_labels = frozenset(t.label for t in self.transitions if t.is_empty)

        arcs = [tuple(a) for a in arcs]
        self.arcs = frozenset(arcs)
        pre = {n: set() for n in self.places | self.labels}
        post = {n: set() for n in pre}
        for src, dst in sorted(self.arcs):
            for end in (src, dst):
                if end not in pre:
                    raise NetFormatError("arc endpoint %r is not a declared "
                                         "place or transition" % end,
                                         code="UNKNOWN_ENDPOINT")
            if (src in self.places) == (dst in self.places):
                raise NetFormatError("arc %r -> %r does not connect a place "
                                     "with a transition" % (src, dst),
                                     code="NON_BIPARTITE_ARC")
            post[src].add(dst)
            pre[dst].add(src)
        self._pre = {n: frozenset(s) for n, s in pre.items()}
        self._post = {n: frozenset(s) for n, s in post.items()}

        self.explicit_initial = initial_marking is not None
        if initial_marking is not None:
            self.initial_marking = initial_marking
        else:
            src = self.source_places()
            self.initial_marking = frozenset(src) if len(src) == 1 else frozenset()

        # repeats are checked last, so every other error keeps its precedence
        if len(self.arcs) < len(arcs):
            raise NetFormatError("arc %r -> %r is listed twice (weighted arcs "
                                 "are not supported)" % _repeated(arcs),
                                 code="PARSE_ERROR")
        if self.explicit_initial and len(initial_marking) < len(initial_list):
            raise NetFormatError("initial marking lists place %r twice (nets "
                                 "are 1-bounded)" % _repeated(initial_list),
                                 code="PARSE_ERROR")

    def inputs(self, label):
        """Input places of a transition."""
        return self._pre[label]

    def outputs(self, label):
        """Output places of a transition."""
        return self._post[label]

    def source_places(self):
        return {p for p in self.places if not self._pre[p]}

    def sink_places(self):
        return {p for p in self.places if not self._post[p]}

    def __eq__(self, other):
        if not isinstance(other, WFNet):
            return NotImplemented
        return (self.places == other.places
                and self.transitions == other.transitions
                and self.arcs == other.arcs
                and self.initial_marking == other.initial_marking)

    def __hash__(self):
        return hash((self.places, self.transitions, self.arcs,
                     self.initial_marking))

    def __repr__(self):
        return "WFNet(%r, |P|=%d, |T|=%d, |F|=%d)" % (
            self.name, len(self.places), len(self.transitions), len(self.arcs))


def enabled(net, marking):
    """Transitions whose every input place is marked."""
    return {t.label for t in net.transitions if net.inputs(t.label) <= marking}


def fire(net, marking, label):
    """Fire a transition: consume input tokens, produce output tokens.

    Raises NotEnabledError if some input place is unmarked, and
    UnsafeFiringError if an output place would receive a second token
    (1-boundedness violation).  Self-loop places are consumed and re-produced.
    """
    ins = net.inputs(label)
    if not ins <= marking:
        raise NotEnabledError("transition %r is not enabled in %s"
                              % (label, key_label(marking_key(marking))))
    outs = net.outputs(label)
    clash = outs & (marking - ins)
    if clash:
        raise UnsafeFiringError(
            "firing %r would put a second token in %s"
            % (label, marking_key(clash)))
    return (marking - ins) | outs


def _reach(start, step):
    """Nodes reachable from ``start`` in the arc digraph, where ``step``
    maps each place or transition to the nodes one arc away."""
    seen = set(start)
    queue = deque(start)
    while queue:
        for nxt in step[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def validate_structural(net):
    """Check workflow-net structure; every problem becomes a report entry.

    Codes: MULTIPLE_SOURCES, NO_SOURCE, MULTIPLE_SINKS, NO_SINK, NOT_ON_PATH,
    BAD_INITIAL_MARKING.
    """
    violations = []
    sources = sorted(net.source_places())
    sinks = sorted(net.sink_places())
    if not sources:
        violations.append(Violation("NO_SOURCE", "no place without incoming arcs", ""))
    elif len(sources) > 1:
        for p in sources:
            violations.append(Violation(
                "MULTIPLE_SOURCES", "more than one source place", p))
    if not sinks:
        violations.append(Violation("NO_SINK", "no place without outgoing arcs", ""))
    elif len(sinks) > 1:
        for p in sinks:
            violations.append(Violation(
                "MULTIPLE_SINKS", "more than one sink place", p))

    if len(sources) == 1 and len(sinks) == 1:
        source, sink = sources[0], sinks[0]
        on_path = _reach({source}, net._post) & _reach({sink}, net._pre)
        for elem in sorted(net.places | net.labels):
            if elem in (source, sink):
                continue
            if elem not in on_path:
                violations.append(Violation(
                    "NOT_ON_PATH",
                    "not on any directed path from %r to %r" % (source, sink),
                    elem))
        if net.explicit_initial and net.initial_marking != frozenset({source}):
            violations.append(Violation(
                "BAD_INITIAL_MARKING",
                "explicit initial marking differs from %s" % key_label(source),
                marking_key(net.initial_marking)))
    return ValidationReport(tuple(violations))
