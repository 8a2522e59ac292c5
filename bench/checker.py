"""Independent expected results for the benchmark's CLI calls.

Nothing here imports ``wfmig``: the checker reads the same net documents
the program reads, plays the token game itself, and derives each marking's
purged trace-transition-set (TTS) family by a forward closure over
(marking, purged label set) states.  A walk's label set is exactly what the
paper calls a TTS, so the states reached at a marking are its TTS family.

The closed forms for the validate-wide nets are written out separately,
so the counts ``wfmig reach`` prints are checked against arithmetic rather
than against a second graph search.
"""

import json
import re


class Net:
    """A parsed net document: pre/post place sets per transition label."""

    def __init__(self, text):
        raw = json.loads(text)
        self.name = raw.get("name", "")
        label = {}
        self.empty = set()
        for entry in raw["transitions"]:
            if isinstance(entry, str):
                entry = {"id": entry}
            label[entry["id"]] = entry.get("label", entry["id"])
            if entry.get("empty"):
                self.empty.add(label[entry["id"]])
        self.pre = {t: set() for t in label.values()}
        self.post = {t: set() for t in label.values()}
        for a, b in raw["arcs"]:
            if a in label:
                self.post[label[a]].add(b)
            else:
                self.pre[label[b]].add(a)
        targets = {b for _, b in raw["arcs"]}
        source = [p for p in raw["places"] if p not in targets]
        self.initial = frozenset(raw.get("initial_marking") or source)

    def successors(self, marking):
        for t, ins in self.pre.items():
            if ins <= marking:
                yield t, (marking - ins) | self.post[t]


def purged_families(net):
    """Marking -> set of purged TTSs, by closure over (marking, labels)."""
    families = {}
    start = (net.initial, frozenset())
    seen = {start}
    todo = [start]
    while todo:
        marking, labels = todo.pop()
        families.setdefault(marking, set()).add(labels)
        for t, nxt in net.successors(marking):
            state = (nxt, labels if t in net.empty else labels | {t})
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return families


def _key(marking):
    return ",".join(sorted(marking))


def expected_map(old_text, new_text):
    """The rows ``wfmig map`` must print, and the markings of both nets.

    Rows are sorted by the old marking's comma-joined key and each row's
    equivalents by theirs, as the program documents."""
    old, new = Net(old_text), Net(new_text)
    old_fam, new_fam = purged_families(old), purged_families(new)
    by_tts = {}
    for marking, family in new_fam.items():
        for tts in family:
            by_tts.setdefault(tts, set()).add(marking)
    rows = []
    for marking in sorted(old_fam, key=_key):
        equivalents = set()
        for tts in old_fam[marking]:
            equivalents |= by_tts.get(tts, set())
        rows.append({
            "old_marking": sorted(marking),
            "equivalents": [sorted(m) for m in sorted(equivalents, key=_key)],
            "change_region": not equivalents,
        })
    doc = {"old_net": old.name, "new_net": new.name, "rows": rows}
    return doc, len(old_fam) + len(new_fam)


_MARKING = re.compile(r"\{([^{}]*)\}")


def parse_table(text):
    """Rows of ``map --format table`` output, in the JSON row shape."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("old marking"):
        raise ValueError("map table has no header line")
    rows = []
    for line in lines[1:]:
        found = [m.split(",") if m else [] for m in _MARKING.findall(line)]
        if not found:
            raise ValueError("map table row without a marking: %r" % line)
        change = line.endswith("(change region)")
        if change and len(found) != 1:
            raise ValueError("change-region row with equivalents: %r" % line)
        rows.append({"old_marking": found[0], "equivalents": found[1:],
                     "change_region": change})
    return rows


# Closed forms for the validate-wide shapes: (markings, edges).

def par_counts(k, n, loops):
    """k parallel branches of n tasks between a fork and a join; with
    ``loops`` each branch has a redo from its last place to its first."""
    markings = (n + 1) ** k + 2
    edges = k * n * (n + 1) ** (k - 1) + 2
    if loops:
        edges += k * (n + 1) ** (k - 1)
    return markings, edges


def sequence_counts(n):
    return n + 1, n


def choice_counts(m, length):
    """m exclusive alternatives of ``length`` tasks from source to sink."""
    return m * (length - 1) + 2, m * length


def closed_form(shape):
    kind = shape[0]
    if kind == "parallel":
        return par_counts(*shape[1:])
    if kind == "sequence":
        return sequence_counts(*shape[1:])
    if kind == "choice":
        return choice_counts(*shape[1:])
    raise ValueError("unknown shape %r" % (shape,))


def check_validate(code, out, err):
    """``wfmig validate`` on a sound net: exit 0 and no violations."""
    if code != 0 or err or out != "structural: ok\nbehavioral: ok\n":
        raise AssertionError("validate: exit %r, stdout %r, stderr %r"
                             % (code, out[:200], err[:200]))


def check_reach(code, out, err, shape, source, sink, dot_text):
    """``wfmig reach --dot``: counts by closed form, DOT size to match."""
    markings, edges = closed_form(shape)
    want = ("nodes: %d\nedges: %d\ninitial: {%s}\nterminal: {%s}\n"
            % (markings, edges, source, sink))
    if code != 0 or err or out != want:
        raise AssertionError("reach %r: exit %r, stdout %r, stderr %r, "
                             "want %r" % (shape, code, out, err[:200], want))
    lines = dot_text.count("\n")
    if lines != markings + edges + 2:
        raise AssertionError("reach %r: DOT has %d lines, want %d"
                             % (shape, lines, markings + edges + 2))
    return markings
