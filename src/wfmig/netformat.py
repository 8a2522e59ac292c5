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

import csv
import io
import json

from .errors import NetFormatError
from .net import Transition, WFNet, key_label


def _expect(cond, message):
    if not cond:
        raise NetFormatError(message, code="PARSE_ERROR")


def parse_net(text):
    """Parse a net document and build the net (well-formedness enforced,
    workflow-structure validation left to the caller).  Arcs name a
    transition by its id, never by a label that is not also its id; the
    id is resolved to the label."""
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
    _expect(all(isinstance(p, str) and p for p in places),
            "place names must be non-empty strings")

    transitions = []
    label_of = {}
    for entry in raw["transitions"]:
        if isinstance(entry, str):
            tid = label = entry
            empty = False
        else:
            _expect(isinstance(entry, dict), "transition entries must be "
                                             "strings or objects")
            _expect(not set(entry) - {"id", "label", "empty"},
                    "transition entry keys are id, label, empty")
            tid = entry.get("id")
            label = entry.get("label", tid)
            empty = entry.get("empty", False)
        _expect(isinstance(tid, str) and tid,
                "transition id must be a non-empty string")
        if tid in label_of:
            raise NetFormatError("duplicate transition id %r" % tid,
                                 code="DUPLICATE_NAME")
        _expect(isinstance(label, str) and label,
                "transition label must be a non-empty string")
        _expect(isinstance(empty, bool), "'empty' must be a boolean")
        label_of[tid] = label
        transitions.append(Transition(label, empty))

    arcs = []
    for arc in raw["arcs"]:
        _expect(isinstance(arc, list) and len(arc) == 2
                and isinstance(arc[0], str) and isinstance(arc[1], str),
                "arcs must be [from, to] name pairs (weighted arcs are not "
                "supported)")
        a, b = arc
        arcs.append((label_of.get(a, a), label_of.get(b, b)))

    initial = raw.get("initial_marking")
    if initial is not None:
        _expect(isinstance(initial, list)
                and all(isinstance(p, str) for p in initial),
                "'initial_marking' must be a list of place names")

    name = raw.get("name", "")
    _expect(isinstance(name, str), "'name' must be a string")

    # arcs name places and transition ids alike, so an id must not be a
    # place name; an id equal to its label is checked by WFNet with the
    # other labels
    declared = set(places)
    for tid, label in label_of.items():
        if tid != label and tid in declared:
            raise NetFormatError("transition id %r is also a place name"
                                 % tid, code="DUPLICATE_NAME")
    net = WFNet(places, transitions, arcs, initial_marking=initial, name=name)
    # an endpoint WFNet accepted that is no place and no id is a label; it
    # is checked last, so every error WFNet reports keeps its precedence
    for end in (e for arc in raw["arcs"] for e in arc):
        if end not in label_of and end not in declared:
            raise NetFormatError("arc endpoint %r is not a declared place or "
                                 "transition" % end, code="UNKNOWN_ENDPOINT")
    return net


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
# JSON document splits them into place lists.

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


def emit_json(old_net, new_net, table):
    return json.dumps(mapping_document(old_net, new_net, table),
                      indent=2) + "\n"


def emit_csv(old_net, new_net, table):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["old_marking", "equivalents", "change_region"])
    for old_key, equivalents in table.rows:
        writer.writerow([key_label(old_key),
                         ";".join(map(key_label, equivalents)),
                         "false" if equivalents else "true"])
    return out.getvalue()


def emit_table(old_net, new_net, table):
    width = max([len("old marking")]
                + [len(key_label(key)) for key, _ in table.rows])
    lines = ["%-*s  %s" % (width, "old marking", "new equivalent markings")]
    for old_key, equivalents in table.rows:
        right = (", ".join(map(key_label, equivalents)) if equivalents
                 else "(change region)")
        lines.append("%-*s  %s" % (width, key_label(old_key), right))
    return "\n".join(lines) + "\n"
