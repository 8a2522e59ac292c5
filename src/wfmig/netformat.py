"""Net input format and mapping-table emitters.

A net document is a single JSON object:

    {
      "name": "example",
      "places": ["p1", "p2", "p3"],
      "transitions": ["T0", {"id": "e1", "label": "e1", "empty": true}],
      "arcs": [["p1", "T0"], ["T0", "p2"]],
      "initial_marking": ["p1"]          // optional; must equal {source}
    }

A transition given as a bare string is a regular transition whose label is
its id.  Arc endpoints name a declared place or transition id, one
namespace, so an id may not also be a place name; weighted arcs (any third
element) are rejected.  ``parse_net`` builds the ``WFNet`` directly, with
arcs resolved from ids to labels.  ``serialize_net`` writes a net
canonically (sorted, two-space indent, every transition id equal to its
label), so ``parse_net(serialize_net(net)) == net`` for every net, and
``serialize_net(parse_net(text)) == text`` for every canonical text.
"""

import json

from .errors import NetFormatError
from .net import Transition, WFNet, key_label


def _expect(cond, message, code="PARSE_ERROR"):
    if not cond:
        raise NetFormatError(message, code=code)


def parse_net(text):
    """Parse a net document and build the net; workflow-structure
    validation is left to the caller.  This reads the document's shape,
    checks the transition entries over whole lists and resolves every arc
    endpoint in one comprehension, a place to itself and a transition id
    (never a label that is not also an id) to its label; ``WFNet`` checks
    the name, arc and marking rules.  Of several faults, the one reported
    is not specified, but it is deterministic."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetFormatError("line %d column %d: %s"
                             % (exc.lineno, exc.colno, exc.msg),
                             code="PARSE_ERROR") from exc
    except RecursionError as exc:
        raise NetFormatError("values nested too deeply",
                             code="PARSE_ERROR") from exc
    _expect(isinstance(raw, dict), "top-level value must be an object")
    unknown = set(raw) - {"name", "places", "transitions", "arcs",
                          "initial_marking"}
    _expect(not unknown, "unknown keys: %s" % ", ".join(sorted(unknown)))
    _expect(isinstance(raw.get("places"), list), "'places' must be a list")
    _expect(isinstance(raw.get("transitions"), list),
            "'transitions' must be a list")
    _expect(isinstance(raw.get("arcs"), list), "'arcs' must be a list")

    places = raw["places"]
    _expect(set(map(type, places)) <= {str} and all(places),
            "place names must be non-empty strings")

    # arcs name places and transition ids alike: each endpoint maps to the
    # node it names, a place to itself and an id to its label
    node_of = dict(zip(places, places))
    transitions = _entries(raw["transitions"], node_of)

    arcs = _resolve(raw["arcs"], node_of)

    initial = raw.get("initial_marking")
    if initial is not None:
        _expect(isinstance(initial, list)
                and all(isinstance(p, str) for p in initial),
                "'initial_marking' must be a list of place names")

    name = raw.get("name", "")
    _expect(isinstance(name, str), "'name' must be a string")
    return WFNet(places, transitions, arcs, initial_marking=initial, name=name)


_ENTRY_KEYS = {"id", "label", "empty"}


def _entries(entries, node_of):
    """The transitions of the entries, as ``WFNet`` takes them: a bare
    string is a regular transition's label, and an object is an empty
    ``Transition`` or its label.  Each id is added to ``node_of``, mapped to
    its label.  The bare strings are checked over the whole list and the
    objects, few in a net, one by one; ``filter`` with
    ``str.__instancecheck__`` (``isinstance(x, str)``) parts the two in C.
    When some check fails, ``_scan_entries`` names the fault."""
    if set(map(type, entries)) <= {str, dict}:
        transitions = list(filter(str.__instancecheck__, entries))
        ids = transitions.copy()
        named = []
        for entry in filter(dict.__instancecheck__, entries):
            tid = entry.get("id")
            label = entry.get("label", tid)
            empty = entry.get("empty", False)
            if not (entry.keys() <= _ENTRY_KEYS and type(tid) is str
                    and type(label) is str and label
                    and type(empty) is bool
                    and (tid == label or tid not in node_of)):
                break
            ids.append(tid)
            named.append((tid, label))
            transitions.append(Transition(label, True) if empty else label)
        else:
            if all(ids) and len(frozenset(ids)) == len(ids):
                node_of.update(zip(ids, ids))
                node_of.update(named)
                return transitions
    return _scan_entries(entries, node_of)


def _scan_entries(entries, node_of):
    """``_entries`` entry by entry, in order: raises for the first bad
    entry."""
    ids = set()
    transitions = []
    for entry in entries:
        if isinstance(entry, str):
            tid = label = entry
            empty = False
        else:
            _expect(isinstance(entry, dict), "transition entries must be "
                                             "strings or objects")
            _expect(not set(entry) - _ENTRY_KEYS,
                    "transition entry keys are id, label, empty")
            tid = entry.get("id")
            label = entry.get("label", tid)
            empty = entry.get("empty", False)
        _expect(isinstance(tid, str) and tid,
                "transition id must be a non-empty string")
        if tid in ids:
            raise NetFormatError("duplicate transition id %r" % tid,
                                 code="DUPLICATE_NAME")
        # an id equal to its label is checked by WFNet with the other labels
        if tid != label and tid in node_of:
            raise NetFormatError("transition id %r is also a place name"
                                 % tid, code="DUPLICATE_NAME")
        _expect(isinstance(label, str) and label,
                "transition label must be a non-empty string")
        _expect(isinstance(empty, bool), "'empty' must be a boolean")
        ids.add(tid)
        node_of[tid] = label
        transitions.append(Transition(label, True) if empty else label)
    return transitions


def _resolve(arcs, node_of):
    """Every arc as the pair of nodes it names, in one comprehension; when
    some arc is not a pair of names ``node_of`` holds, ``_scan`` names it."""
    try:
        if set(map(type, arcs)) <= {list}:
            return [(node_of[a], node_of[b]) for a, b in arcs]
    except (KeyError, TypeError, ValueError):   # unknown, unhashable, length
        pass
    return _scan(arcs, node_of)


def _scan(arcs, node_of):
    """``_resolve`` arc by arc, in order: raises for the first bad arc."""
    resolved = []
    for arc in arcs:
        _expect(isinstance(arc, list) and len(arc) == 2
                and isinstance(arc[0], str) and isinstance(arc[1], str),
                "arcs must be [from, to] name pairs (weighted arcs are not "
                "supported)")
        for end in arc:
            _expect(end in node_of, "arc endpoint %r is not a declared place "
                    "or transition" % end, "UNKNOWN_ENDPOINT")
        resolved.append((node_of[arc[0]], node_of[arc[1]]))
    return resolved


def serialize_net(net):
    """Canonical JSON text for a net; byte-deterministic.  A regular
    transition is written as its bare label, an empty one as an object."""
    obj = {
        "name": net.name,
        "places": sorted(net.places),
        "transitions": [{"id": t.label, "label": t.label, "empty": True}
                        if t.is_empty else t.label
                        for t in net.transitions],
        "arcs": [list(a) for a in sorted(net.arcs)],
    }
    if net.explicit_initial:
        obj["initial_marking"] = sorted(net.initial_marking)
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Mapping output: every emitter takes (old_net, new_net, table); table and
# csv print the keys in ``table.rows`` as ``key_label`` forms, and only the
# JSON document splits them into place lists.  Each format is one
# generator of the text's pieces (``*_lines``), which ``map`` writes as
# they come; ``emit_*`` joins them into one string.

# kept in the package: bench/tracer.py wraps it by module attribute
def mapping_document(old_net, new_net, table):
    """The mapping table as a plain dict (the JSON wire shape)."""
    rows = []
    for old_key, equivalents in table.rows:
        rows.append({
            "old_marking": old_key.split(",") if old_key else [],
            "equivalents": [k.split(",") if k else [] for k in equivalents],
            "change_region": not equivalents,
        })
    return {"old_net": old_net.name, "new_net": new_net.name, "rows": rows}


def _json_places(key, indent):
    """``key.split(",")`` as ``json.dumps(..., indent=2)`` writes it with
    its closing bracket at ``indent`` spaces.  Place names hold no ``,``
    and no JSON escape holds one, so the key is quoted once and split."""
    if not key:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return '[%s"%s"\n%s]' % (pad, json.dumps(key)[1:-1].replace(
        ",", '",%s"' % pad), " " * indent)


def json_lines(old_net, new_net, table):
    """``json.dumps(mapping_document(...), indent=2) + "\\n"``, byte for
    byte, written for this one document shape, in pieces: the head, one
    piece per row, the tail.  With ``indent`` set, ``json.dumps`` takes its
    pure-Python encoder; here only the leaf strings go through
    ``json.dumps``, which quotes them in C."""
    yield ('{\n  "old_net": %s,\n  "new_net": %s,\n  "rows": '
           % (json.dumps(old_net.name), json.dumps(new_net.name)))
    opening = "["
    for old_key, equivalents in table.rows:
        if equivalents:
            right = "[\n        %s\n      ]" % ",\n        ".join(
                [_json_places(key, 8) for key in equivalents])
        else:
            right = "[]"
        yield ('%s\n    {\n      "old_marking": %s,\n'
               '      "equivalents": %s,\n'
               '      "change_region": %s\n    }'
               % (opening, _json_places(old_key, 6), right,
                  "false" if equivalents else "true"))
        opening = ","
    yield "\n  ]\n}\n" if table.rows else "[]\n}\n"


class _Echo:
    """A file for ``csv.writer`` that writes nothing: ``write`` hands back
    the line it is given, and ``writerow`` returns what ``write`` does."""

    def write(self, line):
        return line


def csv_lines(old_net, new_net, table):
    """The CSV text, one row at a time."""
    import csv
    row = csv.writer(_Echo(), lineterminator="\n").writerow
    yield row(["old_marking", "equivalents", "change_region"])
    for old_key, equivalents in table.rows:
        yield row([key_label(old_key),
                   ";".join(map(key_label, equivalents)),
                   "false" if equivalents else "true"])


def table_lines(old_net, new_net, table):
    """The aligned text table, one line at a time.  The first column is as
    wide as its widest key, found by a pass over the key lengths."""
    width = max([len("old marking")]
                + [len(key_label(key)) for key, _ in table.rows])
    yield "%-*s  %s\n" % (width, "old marking", "new equivalent markings")
    for old_key, equivalents in table.rows:
        right = (", ".join(map(key_label, equivalents)) if equivalents
                 else "(change region)")
        yield "%-*s  %s\n" % (width, key_label(old_key), right)


# kept in the package: bench/tracer.py wraps it by module attribute
def emit_json(old_net, new_net, table):
    """The whole text of ``json_lines``, as one string."""
    return "".join(json_lines(old_net, new_net, table))


# kept in the package: bench/tracer.py wraps it by module attribute
def emit_csv(old_net, new_net, table):
    """The whole text of ``csv_lines``, as one string."""
    return "".join(csv_lines(old_net, new_net, table))


# kept in the package: bench/tracer.py wraps it by module attribute
def emit_table(old_net, new_net, table):
    """The whole text of ``table_lines``, as one string."""
    return "".join(table_lines(old_net, new_net, table))
