"""Benchmark of ``wfmig map``, ``validate`` and ``reach`` through the CLI.

    python3 bench/run.py --workload map-loops --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload runs in this single
process: it imports ``wfmig`` from ``src/``, writes its generated input nets
under ``bench/out/<workload>-<seed>[-trace]/``, and calls
``wfmig.cli.main(argv)`` with stdout and stderr captured.  Every call's
output is checked against ``checker``, which shares no code with ``wfmig``.

With ``--trace 0`` the run reports the end-to-end metrics, with times
scaled by the host speed that ``probe`` measures next to them; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, the layer shares and the tracing overhead.  The last
line of stdout is the result as one JSON object.  See README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import checker
import inputs
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
OUT = os.path.join(ROOT, "bench", "out")
SETUPS = 5
# Wall time of probe() on the host the README's figures come from, in its
# usual state.  Times are reported in seconds of that host.
REFERENCE_S = 0.04
PROBE_EVERY_S = 1.0


class Call:
    """One CLI invocation and the check of its output.

    The first output is checked against the checker; later rounds repeat
    the same call and must print exactly the same bytes."""

    def __init__(self, argv, expect, dot=None):
        self.argv = argv
        self.expect = expect        # (code, out, err, dot_text) -> markings
        self.dot = dot
        self.markings = None
        self.verified = None

    def check(self, code, out, err):
        dot_text = None
        if self.dot is not None:
            with open(self.dot, encoding="utf-8") as handle:
                dot_text = handle.read()
        seen = (code, out, err, dot_text)
        if self.verified is None:
            self.markings = self.expect(*seen)
            self.verified = seen
        elif seen != self.verified:
            raise AssertionError("%s: output differs from the first round"
                                 % " ".join(self.argv))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _map_calls(pairs, workdir, fmt):
    calls = []
    for name, old_text, new_text in pairs:
        old = os.path.join(workdir, name + "-old.json")
        new = os.path.join(workdir, name + "-new.json")
        _write(old, old_text)
        _write(new, new_text)

        def expect(code, out, err, dot, name=name, old_text=old_text,
                   new_text=new_text):
            want, markings = checker.expected_map(old_text, new_text)
            if code != 0 or err:
                raise AssertionError("map: exit %r, stderr %r" % (code, err))
            if fmt == "json":
                ok = json.loads(out) == want
            else:
                ok = checker.parse_table(out) == want["rows"]
            if not ok:
                raise AssertionError("map %s: rows differ from the checker"
                                     % name)
            return markings

        calls.append(Call(["map", "--old", old, "--new", new,
                           "--format", fmt], expect))
    return calls


def _wide_calls(nets, workdir):
    calls = []
    for name, text, shape, source, sink in nets:
        path = os.path.join(workdir, name + ".json")
        dot = os.path.join(workdir, name + ".dot")
        _write(path, text)
        markings = checker.closed_form(shape)[0]

        def validated(code, out, err, dot_text, markings=markings):
            checker.check_validate(code, out, err)
            return markings

        def reached(code, out, err, dot_text, shape=shape, source=source,
                    sink=sink):
            return checker.check_reach(code, out, err, shape, source, sink,
                                       dot_text)

        calls.append(Call(["validate", path], validated))
        calls.append(Call(["reach", path, "--dot", dot], reached, dot=dot))
    return calls


WORKLOADS = {
    "map-loops": lambda seed, workdir: _map_calls(
        inputs.map_loops_pairs(seed, FIXTURES), workdir, "json"),
    "map-long": lambda seed, workdir: _map_calls(
        inputs.map_long_pairs(seed), workdir, "table"),
    "validate-wide": lambda seed, workdir: _wide_calls(
        inputs.validate_wide_nets(seed), workdir),
}


def import_wfmig():
    """A fresh import of the package from ``src/``."""
    for name in [m for m in sys.modules
                 if m == "wfmig" or m.startswith("wfmig.")]:
        del sys.modules[name]
    import wfmig
    import wfmig.cli
    where = os.path.dirname(os.path.abspath(wfmig.__file__))
    if where != os.path.join(SRC, "wfmig"):
        raise ImportError("wfmig was imported from %s, not from %s"
                          % (where, SRC))
    return wfmig


def invoke(wfmig, call):
    """Run one CLI call; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = wfmig.cli.main(call.argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def set_up(workload, seed, workdir):
    """Import, generate and write the inputs, and make one warm-up call.
    Returns (seconds, wfmig, calls, warm-up result)."""
    start = time.perf_counter()
    wfmig = import_wfmig()
    calls = WORKLOADS[workload](seed, workdir)
    warm = invoke(wfmig, calls[0])
    return time.perf_counter() - start, wfmig, calls, warm


def probe():
    """Host speed probe: wall time of a fixed pure-Python job of the
    program's kind (frozensets, dict lookups, sorted joins), with the
    collector off so the program's live heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        frontier = [frozenset(("p0",))]
        for step in range(15000):
            marking = frontier[step % len(frontier)]
            nxt = marking - {"p%d" % (step % 5)} | {"p%d" % (step % 7)}
            key = ",".join(sorted(nxt))
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_round(wfmig, calls, rounds):
    """One pass over the batch, recorded in ``rounds`` as [call times,
    markings, probe times].  A call's time is kept once its output has
    passed; the host is probed at least every PROBE_EVERY_S seconds and
    once at the end of the round."""
    record = [[], 0, []]
    rounds.append(record)
    last = time.perf_counter()
    for call in calls:
        elapsed, code, out, err = invoke(wfmig, call)
        call.check(code, out, err)
        record[0].append(elapsed)
        record[1] += call.markings
        if time.perf_counter() - last >= PROBE_EVERY_S:
            record[2].append(probe())
            last = time.perf_counter()
    record[2].append(probe())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wfmig", "__init__.py")):
        print("no wfmig sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUT, "%s-%d%s" % (args.workload, args.seed,
                                             "-trace" if args.trace else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setups = []
    plain, traced = [], []          # rounds, as run_round records them
    try:
        for _ in range(SETUPS):
            before = probe()
            seconds, wfmig, calls, warm = set_up(args.workload, args.seed,
                                                 workdir)
            setups.append((seconds, REFERENCE_S / before))
        calls[0].check(*warm[1:])
        trace = (tracer.Tracer(tracer.wrap_points(wfmig)) if args.trace
                 else None)
        deadline = time.perf_counter() + args.seconds
        while True:
            run_round(wfmig, calls, plain)
            if trace is not None:
                trace.install()
                try:
                    run_round(wfmig, calls, traced)
                finally:
                    trace.remove()
            if time.perf_counter() >= deadline:
                break
    except Exception:
        # A wrong output or a call that raised: the run is not correct.
        traceback.print_exc()
        passed = sum(len(r[0]) for r in plain + traced)
        print(json.dumps({"correct": False, "attempted": passed + 1,
                          "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(len(r[0]) for r in plain + traced)
    summary = {"workload": args.workload, "seed": args.seed,
               "rounds": len(plain), "calls_per_round": len(calls),
               "setup_s": setups}
    # The host's speed drifts by up to 1.7x over seconds to minutes; each
    # round's times, and each set-up, are scaled by the speed the probes
    # next to them saw.
    speeds = [REFERENCE_S / statistics.median(p) for _, _, p in plain]
    summary.update(host_speed=speeds, round_s=[sum(t) for t, _, _ in plain])
    if trace is None:
        # Medians over rounds: a transient slowdown of the host moves one
        # round, not the result.
        raw = {
            "markings_per_s": statistics.median(m / sum(t)
                                                for t, m, _ in plain),
            "call_p50_s": statistics.median(statistics.median(t)
                                            for t, _, _ in plain),
            "setup_s": statistics.median(t for t, _ in setups),
        }
        summary["wall_clock"] = raw
        metrics = {
            "markings_per_s": {
                "value": statistics.median(m / sum(t) / v for (t, m, _), v
                                           in zip(plain, speeds)),
                "unit": "1/s"},
            "call_p50_s": {
                "value": statistics.median(statistics.median(t) * v
                                           for (t, _, _), v
                                           in zip(plain, speeds)),
                "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(t * v for t, v in setups),
                        "unit": "s"},
        }
        print("host speed %.3f of the reference; wall clock: %s"
              % (statistics.median(speeds), json.dumps(raw)))
    else:
        trace.write(os.path.join(workdir, "spans.jsonl"))
        metrics, shares, worst = tracer.layer_metrics(trace.spans,
                                                      len(traced))
        # Both kinds of round in reference seconds, as the end-to-end
        # times are, so host drift between them does not read as overhead.
        overhead = (sum(sum(t) * REFERENCE_S / statistics.median(p)
                        for t, _, p in traced)
                    / sum(sum(t) * v for (t, _, _), v in zip(plain, speeds))
                    - 1.0)
        summary.update(tracing_overhead=overhead, layer_sum_error_s=worst,
                       layer_self_s=shares)
        total = sum(shares.values())
        for layer, seconds in shares.items():
            print("layer %-13s self %9.4f s  %5.1f %%"
                  % (layer, seconds, 100.0 * seconds / total))
        print("tracing overhead: %+.1f %% of the untraced call time"
              % (100.0 * overhead))

    for name, metric in metrics.items():
        print("%-36s %.6g %s" % (name, metric["value"], metric["unit"]))
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(result, summary=summary), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
