"""Spans around the public functions of each wfmig layer, for the traced run.

The wrappers are installed by module attribute from the benchmark's side,
so the program itself carries no tracing code.  A span records its name,
its parent span, the call it belongs to, its start and end, and the counts
read off the wrapped function's result.  Spans stay in memory until the run
ends and are then written out as JSON lines.
"""

import json
import time
from collections import defaultdict

LAYERS = ("cli", "netformat", "net", "reachability", "tts", "equivalence")


def _markings_edges(graph):
    return {"markings": len(graph.nodes), "edges": len(graph.edges)}


def _mapping_rows(table):
    return {"rows": len(table.rows),
            "change_region_rows": sum(1 for _, eq in table.rows if not eq)}


def _families(result):
    return {"family_members": sum(len(f) for f in result.values())}


def _size(name):
    return lambda result: {name: len(result)}


def wrap_points(wfmig):
    """(module, attribute, span name, count function) for every wrapped
    layer function.  Names a module binds with ``from .x import y`` are
    wrapped in the importing module, which is where the call looks them up.
    """
    cli, netformat, reach, tts, equiv = (wfmig.cli, wfmig.netformat,
                                         wfmig.reachability, wfmig.tts,
                                         wfmig.equivalence)
    return [
        (cli, "main", "cli.main", None),
        (netformat, "parse_net", "netformat.parse_net", None),
        (netformat, "mapping_document", "netformat.mapping_document", None),
        (netformat, "emit_json", "netformat.emit", _size("emitted_bytes")),
        (netformat, "emit_table", "netformat.emit", _size("emitted_bytes")),
        (netformat, "emit_csv", "netformat.emit", _size("emitted_bytes")),
        (cli, "validate_structural", "net.validate_structural", None),
        (reach, "build_reachability", "reachability.build_reachability",
         _markings_edges),
        (equiv, "build_reachability", "reachability.build_reachability",
         _markings_edges),
        (reach, "validate_behavioral", "reachability.validate_behavioral",
         None),
        (reach, "to_dot", "reachability.to_dot", None),
        (equiv, "find_equivalence_mapping",
         "equivalence.find_equivalence_mapping", _mapping_rows),
        (equiv, "purge", "equivalence.purge", None),
        (equiv, "tts_all", "tts.tts_all", _families),
        (tts, "find_cycles", "tts.find_cycles", _size("cycles")),
        (tts, "find_simple_paths", "tts.find_simple_paths",
         _size("seed_paths")),
        (tts, "expand_with_cycles", "tts.expand_with_cycles",
         _size("edge_sets")),
    ]


class Tracer:
    """Records nested spans while installed; ``remove`` restores the
    original functions so untraced and traced rounds can alternate."""

    def __init__(self, points):
        self.points = points
        self.spans = []         # [id, parent, call, name, start, end, counts]
        self._stack = []
        self._saved = []

    def install(self):
        for module, attr, name, count in self.points:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, original, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[0] if parent else None,
                    parent[2] if parent else len(spans), name, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span)
            span[4] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(result)
            return result

        traced.__wrapped__ = original
        return traced

    def write(self, path):
        keys = ("id", "parent", "call", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def check_layer_sums(spans, own, tolerance=1e-9):
    """Each call's per-layer self times must add up to its root span's
    duration; returns the largest difference seen."""
    per_call = defaultdict(float)
    roots = {}
    for s in spans:
        per_call[s[2]] += own[s[0]]
        if s[1] is None:
            roots[s[2]] = s[5] - s[4]
    worst = max(abs(per_call[c] - roots[c]) for c in roots)
    if worst > tolerance:
        raise AssertionError("layer self times miss a call's duration by "
                             "%.3g s" % worst)
    return worst


def layer_metrics(spans, rounds):
    """The per-layer metrics, each per traced round of the batch, the
    self time of each layer per round, and the largest gap between a
    call's layer self times and its duration."""
    own = self_times(spans)
    worst = check_layer_sums(spans, own)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(int)
    layer_s = defaultdict(float)
    pairs = 0
    children = defaultdict(list)
    for s in spans:
        self_s[s[3]] += own[s[0]]
        total_s[s[3]] += s[5] - s[4]
        layer_s[s[3].split(".")[0]] += own[s[0]]
        for key, value in (s[6] or {}).items():
            counts[key] += value
        if s[1] is not None:
            children[s[1]].append(s)
    for s in spans:
        if s[3] == "equivalence.find_equivalence_mapping":
            built = [c[6]["markings"] for c in children[s[0]]
                     if c[3] == "reachability.build_reachability"]
            pairs += built[0] * built[1]
    build = total_s["reachability.build_reachability"]
    m = {
        "cli.self_s": (self_s["cli.main"], "s"),
        "netformat.parse_s": (self_s["netformat.parse_net"], "s"),
        "netformat.emit_s": (self_s["netformat.mapping_document"]
                             + self_s["netformat.emit"], "s"),
        "netformat.emitted_bytes": (counts["emitted_bytes"], "B"),
        "net.validate_structural_s": (self_s["net.validate_structural"], "s"),
        "reachability.build_s": (build, "s"),
        "reachability.markings": (counts["markings"], "count"),
        "reachability.edges": (counts["edges"], "count"),
        "reachability.markings_per_s": (
            counts["markings"] / build if build else 0.0, "1/s"),
        "reachability.validate_behavioral_s": (
            self_s["reachability.validate_behavioral"], "s"),
        "reachability.to_dot_s": (self_s["reachability.to_dot"], "s"),
        "tts.tts_all_s": (total_s["tts.tts_all"], "s"),
        "tts.find_cycles_s": (self_s["tts.find_cycles"], "s"),
        "tts.cycles": (counts["cycles"], "count"),
        "tts.find_simple_paths_s": (self_s["tts.find_simple_paths"], "s"),
        "tts.seed_paths": (counts["seed_paths"], "count"),
        "tts.expand_s": (self_s["tts.expand_with_cycles"], "s"),
        "tts.edge_sets": (counts["edge_sets"], "count"),
        "tts.family_members": (counts["family_members"], "count"),
        "tts.useful_ratio": (
            counts["family_members"] / counts["edge_sets"]
            if counts["edge_sets"] else 0.0, "ratio"),
        "equivalence.mapping_s": (
            total_s["equivalence.find_equivalence_mapping"], "s"),
        "equivalence.purge_s": (self_s["equivalence.purge"], "s"),
        "equivalence.match_s": (
            self_s["equivalence.find_equivalence_mapping"], "s"),
        "equivalence.pairs_compared": (pairs, "count"),
        "equivalence.rows": (counts["rows"], "count"),
        "equivalence.change_region_rows": (counts["change_region_rows"],
                                           "count"),
    }
    out = {}
    for name, (value, unit) in m.items():
        if isinstance(value, int):
            value //= rounds            # every round does the same work
        elif unit == "s":
            value /= rounds
        out[name] = {"value": value, "unit": unit}
    shares = {layer: layer_s[layer] / rounds for layer in LAYERS}
    return out, shares, worst
