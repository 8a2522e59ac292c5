"""Workflow-net core: net structure, markings, structural checks.

A marking is a plain ``frozenset`` of place names; nets are 1-bounded so a
place either holds a token or it does not.  Its one text form is its key,
the comma-joined sorted place names (``marking_key``), printed in braces
(``key_label``).  All types are immutable after construction and every
operation here is a pure function.  The token game is played on int masks
by ``reachability.build_reachability``.  ``Transition``, ``Violation`` and
``ValidationReport`` are namedtuples, as are the package's other record
types: a ``dataclass`` costs an ``exec`` per class and the import of
``dataclasses`` (with ``inspect`` and ``ast``) at every start.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, filterfalse

from .errors import NetFormatError


def _repeated(items):
    return min(item for item, n in Counter(items).items() if n > 1)


def _scan(places, labels, arcs, initial):
    """The name, arc and marking rules item by item, in the order their
    faults are reported (``labels`` sorted): raises the first fault."""
    place_set = frozenset(places)
    unknown = frozenset(initial) - place_set
    if unknown:
        raise NetFormatError("initial marking names unknown place %r"
                             % min(unknown), code="UNKNOWN_ENDPOINT")
    if len(frozenset(initial)) < len(initial):
        raise NetFormatError("initial marking lists place %r twice "
                             "(nets are 1-bounded)" % _repeated(initial),
                             code="PARSE_ERROR")
    seen = set()
    for kind, n in ([("place name", p) for p in places]
                    + [("transition label", label) for label in labels]):
        is_place = kind == "place name"
        if not n:
            raise NetFormatError("empty " + kind, code="PARSE_ERROR")
        if "," in n:
            # marking keys, --marking and tts lines are comma-joined
            raise NetFormatError("%s contains ',': %r" % (kind, n),
                                 code="PARSE_ERROR")
        if is_place and ";" in n:
            # a csv row joins the keys of its equivalents with ';'
            raise NetFormatError("place name contains ';': %r" % n,
                                 code="PARSE_ERROR")
        if n.splitlines() != [n]:
            # a line of output holds one key, TTS or table row
            raise NetFormatError("%s contains a line break: %r" % (kind, n),
                                 code="PARSE_ERROR")
        if is_place and n != n.strip():
            # --marking arguments are stripped name by name
            raise NetFormatError("place name has leading or trailing "
                                 "whitespace: %r" % n, code="PARSE_ERROR")
        if n.encode("utf-8", "replace").decode("utf-8") != n:
            # a lone surrogate cannot be printed
            raise NetFormatError("%s does not encode as UTF-8: %r"
                                 % (kind, n), code="PARSE_ERROR")
        if n in seen:
            raise NetFormatError("duplicate %s: %r"
                                 % (kind if is_place else "name", n),
                                 code="DUPLICATE_NAME")
        seen.add(n)
    if len(frozenset(arcs)) < len(arcs):
        raise NetFormatError("arc %r -> %r is listed twice (weighted arcs "
                             "are not supported)" % _repeated(arcs),
                             code="PARSE_ERROR")
    for src, dst in sorted(arcs):
        for end in (src, dst):
            if end not in seen:
                raise NetFormatError("arc endpoint %r is not a declared "
                                     "place or transition" % end,
                                     code="UNKNOWN_ENDPOINT")
        if (src in place_set) == (dst in place_set):
            raise NetFormatError("arc %r -> %r does not connect a place "
                                 "with a transition" % (src, dst),
                                 code="NON_BIPARTITE_ARC")


def marking_key(marking):
    """Canonical node key for a marking (sorted, comma-joined place names)."""
    return ",".join(sorted(marking))


def key_label(key):
    """Human-readable form of a node key, e.g. ``{p2,p6}``."""
    return "{%s}" % key


class Transition(namedtuple("Transition", "label is_empty",
                            defaults=(False,))):
    """A labeled transition.  ``is_empty`` marks helper transitions that are
    ignored when trace transition sets are compared across nets; they fire
    exactly like ordinary transitions."""

    __slots__ = ()


def _label_lists(transitions):
    """The sorted labels of ``transitions`` and the labels of its empty
    ones.  A bare string is a regular transition's label, a ``Transition``
    gives its own, and anything else ``t`` is ``Transition(str(t))``.
    ``filter`` with ``str.__instancecheck__`` (``isinstance(x, str)``)
    parts the strings from the rest in C."""
    if set(map(type, transitions)) <= {str}:
        return sorted(transitions), ()
    labels = list(filter(str.__instancecheck__, transitions))
    empty = []
    for t in filterfalse(str.__instancecheck__, transitions):
        if isinstance(t, Transition):
            labels.append(t.label)
            if t.is_empty:
                empty.append(t.label)
        else:
            labels.append(str(t))
    labels.sort()
    return labels, empty


class Violation(namedtuple("Violation", "code message element")):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return {v.code for v in self.violations}


class WFNet:
    """A workflow-net candidate: places, transitions, bipartite arcs.

    The constructor owns the name, arc and marking rules, each checked over
    whole lists (``_scan`` only names a fault): an initial marking of
    declared places listed once; place names and labels that are non-empty,
    unique, hold no ``,`` and no line break and encode as UTF-8, place
    names without ``;`` and without leading or trailing whitespace; arcs
    listed once, with known and bipartite endpoints.  Workflow-net
    structure is checked by :func:`validate_structural` and reported, not
    raised.  A transition is given as a ``Transition`` or as its bare
    label; the net keeps ``sorted_labels`` and ``empty_labels`` and builds
    the ``Transition`` objects (``transitions``) only on first use.  Place
    names and transition labels share one namespace, and one ``_pre`` and
    one ``_post`` map over it hold the arcs: the nodes one arc before and
    one arc after each place or label, in arc order.
    """

    def __init__(self, places, transitions, arcs, initial_marking=None, name=""):
        self.name = name
        places = list(places)
        self.places = place_set = frozenset(places)
        labels, empty = _label_lists(list(transitions))
        self.sorted_labels = tuple(labels)
        self.labels = frozenset(labels)
        self.empty_labels = frozenset(empty)
        arcs = list(map(tuple, arcs))
        self.arcs = frozenset(arcs)
        self.explicit_initial = initial_marking is not None
        initial = list(initial_marking) if self.explicit_initial else []
        place_text = "".join(places)
        joined = place_text + "".join(labels)
        names = places + labels
        self._pre = pre = {n: [] for n in names}
        self._post = post = {n: [] for n in names}
        try:
            for src, dst in arcs:
                post[src].append(dst)
                pre[dst].append(src)
        except (KeyError, ValueError):  # an unknown endpoint, not a pair
            grouped = False
        else:
            grouped = True
        # with every arc grouped, it is bipartite when each place's
        # postset holds labels only and each label's postset places only
        into = set(chain.from_iterable(map(post.__getitem__, labels)))
        if not (grouped and place_set.issuperset(initial)
                and len(frozenset(initial)) == len(initial)
                and len(pre) == len(names) and all(names)
                and "," not in joined and ";" not in place_text
                and "".join(joined.splitlines()) == joined
                and list(map(str.strip, places)) == places
                and joined.encode("utf-8", "replace").decode("utf-8") == joined
                and len(self.arcs) == len(arcs)
                and place_set.issuperset(into)
                and self.labels.issuperset(chain.from_iterable(
                    map(post.__getitem__, places)))):
            _scan(places, labels, arcs, initial)
        self._sources = place_set - into
        self._sinks = place_set.difference(chain.from_iterable(
            map(pre.__getitem__, labels)))
        if not self.explicit_initial:
            initial = self._sources if len(self._sources) == 1 else ()
        self.initial_marking = frozenset(initial)

    @cached_property
    def transitions(self):
        """The ``Transition`` of each label, in sorted label order; built
        on first use."""
        empty = self.empty_labels
        return tuple([Transition(label, label in empty)
                      for label in self.sorted_labels])

    def source_places(self):
        return set(self._sources)

    def sink_places(self):
        return set(self._sinks)

    def __eq__(self, other):
        if not isinstance(other, WFNet):
            return NotImplemented
        return (self.places == other.places
                and self.sorted_labels == other.sorted_labels
                and self.empty_labels == other.empty_labels
                and self.arcs == other.arcs
                and self.initial_marking == other.initial_marking)

    def __hash__(self):
        return hash((self.places, self.sorted_labels, self.empty_labels,
                     self.arcs, self.initial_marking))

    def __repr__(self):
        return "WFNet(%r, |P|=%d, |T|=%d, |F|=%d)" % (
            self.name, len(self.places), len(self.labels), len(self.arcs))


def _reach(start, step):
    """Nodes reachable from ``start`` in the arc digraph, where ``step``
    maps each place or transition to the nodes one arc away."""
    seen = set(start)
    queue = list(start)
    for node in queue:      # the list grows as nodes are found
        for nxt in step[node]:
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
        for elem in sorted(net._pre.keys() - on_path - {source, sink}):
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
