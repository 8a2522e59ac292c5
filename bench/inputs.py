"""Input nets for the three workloads, generated from the workload seed.

Every net is a plain net document (the JSON shape ``wfmig`` reads).  The
seed decides everything random here; the same seed always gives the same
documents, byte for byte.

* ``map_loops_pairs``: ``oracle.random_wfnet`` nets from consecutive seeds,
  each paired with an edited copy (renamed task, empty helper in series,
  redo transition added or dropped), plus the shipped ``fig8`` pair and the
  ``fig4``/``fig6`` identity pairs.
* ``map_long_pairs``: long acyclic nets (sequence, exclusive choice, a
  two-branch parallel block between two sequences) against copies with
  empty helpers inserted in series.
* ``validate_wide_nets``: parallel nets ``par(k, n)`` with and without one
  redo per branch, long sequences and wide choices.  Their shape is kept
  next to the document so the checker can apply the closed forms.

The program never sees the seed, only the written files.
"""

import json
import random

# random_wfnet size for map-loops; see README.md for why these values.
LOOPS_PLACES = 10
LOOPS_TRANSITIONS = 12
LOOPS_LOOP = 0.5
LOOPS_PAIRS = 600


class Doc:
    """A net document under construction."""

    def __init__(self, name):
        self.name = name
        self.places = []
        self.transitions = []     # (id, empty)
        self.arcs = []

    def place(self, name):
        self.places.append(name)
        return name

    def task(self, tid, inputs, outputs, empty=False):
        self.transitions.append((tid, empty))
        self.arcs.extend((p, tid) for p in inputs)
        self.arcs.extend((tid, p) for p in outputs)
        return tid

    def to_json(self):
        trans = [{"id": t, "label": t, "empty": True} if empty else t
                 for t, empty in self.transitions]
        return json.dumps({"name": self.name, "places": self.places,
                           "transitions": trans,
                           "arcs": [list(a) for a in self.arcs]},
                          separators=(",", ":")) + "\n"

    def copy(self, name):
        other = Doc(name)
        other.places = list(self.places)
        other.transitions = list(self.transitions)
        other.arcs = list(self.arcs)
        return other

    def source(self):
        targets = {b for _, b in self.arcs}
        return next(p for p in self.places if p not in targets)

    def sink(self):
        origins = {a for a, _ in self.arcs}
        return next(p for p in self.places if p not in origins)

    def pre(self, tid):
        return [a for a, b in self.arcs if b == tid]

    def post(self, tid):
        return [b for a, b in self.arcs if a == tid]

    def insert_helper(self, arc_index, tag):
        """Put an empty transition and a place in series on one arc."""
        a, b = self.arcs[arc_index]
        mid = self.place("h" + tag)
        helper = "e" + tag
        if a in self.places:        # a -> helper -> mid -> b
            self.arcs[arc_index] = (mid, b)
            self.task(helper, [a], [mid], empty=True)
        else:                       # a -> mid -> helper -> b
            self.arcs[arc_index] = (a, mid)
            self.task(helper, [mid], [b], empty=True)

    def rename(self, old, new):
        self.transitions = [(new if t == old else t, e)
                            for t, e in self.transitions]
        self.arcs = [(new if a == old else a, new if b == old else b)
                     for a, b in self.arcs]


def _from_wfnet(net):
    doc = Doc(net.name)
    doc.places = sorted(net.places)
    doc.transitions = [(t.label, t.is_empty) for t in net.transitions]
    doc.arcs = sorted(net.arcs)
    return doc


def _reach_set(arcs, start):
    succ = {}
    for a, b in arcs:
        succ.setdefault(a, []).append(b)
    seen, todo = {start}, [start]
    while todo:
        for nxt in succ.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _on_all_paths(doc):
    """True if every node lies on a path from the source to the sink."""
    forward = _reach_set(doc.arcs, doc.source())
    backward = _reach_set([(b, a) for a, b in doc.arcs], doc.sink())
    return all(n in forward and n in backward
               for n in doc.places + [t for t, _ in doc.transitions])


def _without(doc, tid):
    other = doc.copy(doc.name)
    other.transitions = [(t, e) for t, e in doc.transitions if t != tid]
    other.arcs = [a for a in doc.arcs if tid not in a]
    return other


def _redos(doc):
    """Transitions b -> a that close a cycle (a reaches b without them)
    and whose removal leaves every node on a source-to-sink path."""
    out = []
    for tid, _ in doc.transitions:
        pre, post = doc.pre(tid), doc.post(tid)
        if len(pre) != 1 or len(post) != 1:
            continue
        rest = _without(doc, tid)
        if (pre[0] in _reach_set(rest.arcs, post[0])
                and _on_all_paths(rest)):
            out.append(tid)
    return out


def edited_copy(doc, rng):
    """The map-loops edit: rename a task, add an empty helper in series,
    and drop a redo transition if there is one, else add one."""
    new = doc.copy(doc.name + "-edited")
    redos = _redos(new)
    if redos:
        new = _without(new, rng.choice(redos))
    else:
        src, snk = new.source(), new.sink()
        serial = [t for t, e in sorted(new.transitions)
                  if not e and len(new.pre(t)) == 1 and len(new.post(t)) == 1
                  and new.pre(t)[0] != src and new.post(t)[0] != snk]
        if serial:
            t = rng.choice(serial)
            new.task("R0", new.post(t), new.pre(t))
    kept = sorted(t for t, e in new.transitions if not e and t != "R0")
    victim = rng.choice(kept)
    new.rename(victim, "U" + victim)
    new.insert_helper(rng.randrange(len(new.arcs)), "0")
    return new


def map_loops_pairs(seed, fixture_dir):
    """(name, old_doc_text, new_doc_text) for the map-loops batch."""
    from wfmig.oracle import GenParams, random_wfnet
    fixture = {}
    for name in ("fig8_old", "fig8_new", "fig4", "fig6"):
        with open("%s/%s.json" % (fixture_dir, name), encoding="utf-8") as f:
            fixture[name] = f.read()
    # The fixture pairs come first: the warm-up call is the first call.
    pairs = [("fig8", fixture["fig8_old"], fixture["fig8_new"]),
             ("fig4", fixture["fig4"], fixture["fig4"]),
             ("fig6", fixture["fig6"], fixture["fig6"])]
    for s in range(seed, seed + LOOPS_PAIRS):
        net = random_wfnet(GenParams(seed=s, max_places=LOOPS_PLACES,
                                     max_transitions=LOOPS_TRANSITIONS,
                                     loop_probability=LOOPS_LOOP,
                                     parallel_probability=0.0))
        old = _from_wfnet(net)
        new = edited_copy(old, random.Random(s))
        pairs.append(("random-%d" % s, old.to_json(), new.to_json()))
    return pairs


# ---------------------------------------------------------------------------
# Hand-shaped nets: blocks in series between a source and a sink.

class _Shaper:
    def __init__(self, name):
        self.doc = Doc(name)
        self.count = 0
        self.concurrent = set()     # nodes inside parallel blocks

    def place(self):
        return self.doc.place("p%d" % len(self.doc.places))

    def task(self, inputs, outputs):
        self.count += 1
        return self.doc.task("t%d" % self.count, inputs, outputs)

    def sequence(self, entry, exit_, n):
        here = entry
        for i in range(n):
            nxt = exit_ if i == n - 1 else self.place()
            self.task([here], [nxt])
            here = nxt

    def choice(self, entry, exit_, m, length):
        for _ in range(m):
            self.sequence(entry, exit_, length)

    def parallel(self, entry, exit_, k, n, loops):
        before, tasks = len(self.doc.places), len(self.doc.transitions)
        firsts, lasts = [], []
        for _ in range(k):
            first = self.place()
            last = first
            for _ in range(n):
                nxt = self.place()
                self.task([last], [nxt])
                last = nxt
            if loops:
                self.task([last], [first])
            firsts.append(first)
            lasts.append(last)
        self.task([entry], firsts)
        self.task(lasts, [exit_])
        self.concurrent.update(self.doc.places[before:])
        self.concurrent.update(t for t, _ in self.doc.transitions[tasks:])


def shaped_net(name, blocks, rng):
    """Blocks like ("sequence", n), ("choice", m, length) or
    ("parallel", k, n, loops) in series; place and task names are shuffled
    by ``rng`` so that the sort orders inside the program vary with the
    seed.  ``doc.concurrent`` names the nodes inside parallel blocks."""
    s = _Shaper(name)
    here = s.place()
    sink = s.place()
    for i, block in enumerate(blocks):
        exit_ = sink if i == len(blocks) - 1 else s.place()
        getattr(s, block[0])(here, exit_, *block[1:])
        here = exit_
    doc = s.doc
    places = dict(zip(doc.places, rng.sample(range(len(doc.places)),
                                             len(doc.places))))
    tasks = [t for t, _ in doc.transitions]
    names = dict(zip(tasks, rng.sample(range(len(tasks)), len(tasks))))
    rename = {p: "p%d" % i for p, i in places.items()}
    rename.update((t, "t%d" % i) for t, i in names.items())
    doc.places = [rename[p] for p in doc.places]
    doc.transitions = [(rename[t], e) for t, e in doc.transitions]
    doc.arcs = [(rename[a], rename[b]) for a, b in doc.arcs]
    doc.concurrent = {rename[n] for n in s.concurrent}
    return doc


# map-long: (blocks, empty helpers inserted into the new net).
LONG_NETS = [
    ([("sequence", 400)], 6),
    ([("choice", 20, 20)], 6),
    ([("sequence", 60), ("parallel", 2, 4, False), ("sequence", 60)], 6),
]


def map_long_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for i, (blocks, helpers) in enumerate(LONG_NETS):
        old = shaped_net("long-%d" % i, blocks, rng)
        new = old.copy("long-%d-helpers" % i)
        # Helpers go on serial arcs only: one inside a parallel block would
        # change its interleavings, and with them the work, from seed to
        # seed.
        serial = [j for j, arc in enumerate(old.arcs)
                  if not set(arc) & old.concurrent]
        for h, j in enumerate(rng.sample(serial, helpers)):
            new.insert_helper(j, str(h))
        pairs.append(("long-%d" % i, old.to_json(), new.to_json()))
    return pairs


# validate-wide: one block per net, so the closed forms apply directly.
WIDE_NETS = [
    ("parallel", 2, 40, False),
    ("parallel", 3, 12, True),
    ("parallel", 4, 8, True),
    ("parallel", 5, 6, False),
    ("sequence", 2000),
    ("choice", 40, 50),
]


def validate_wide_nets(seed):
    """(name, doc_text, shape, source, sink) per net."""
    rng = random.Random(seed)
    nets = []
    for i, block in enumerate(WIDE_NETS):
        doc = shaped_net("wide-%d" % i, [block], rng)
        nets.append(("wide-%d" % i, doc.to_json(), block, doc.source(),
                     doc.sink()))
    return nets
