"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its time budget."""

import time

import pytest

from wfmig import (GenParams, build_reachability, change_region,
                   find_equivalence_mapping, random_wfnet,
                   validate_behavioral, validate_structural)
from wfmig.cli import main
from wfmig.tts import EdgeSet, attachable_cycles, find_cycles, \
    find_simple_paths, label_set, tts_for_node

from conftest import (FIXTURE_NAMES, fixture_net, fixture_path as fx,
                      label_families, oracle_mapping)
from reference import oracle_tts


class _Criterion:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.limit_s \
            else "FAIL"
        print("criterion %d (%s): %s [%.2fs, limit %.0fs]"
              % (self.number, self.title, status, elapsed, self.limit_s))
        if exc_type is None:
            assert elapsed <= self.limit_s, \
                "criterion %d exceeded %.0fs" % (self.number, self.limit_s)
        return False


def test_criterion_1_fig4_tts(capsys):
    with _Criterion(1, "fig4 TTS reproduction", 1):
        code = main(["tts", fx("fig4"), "--marking", "P2"])
        out = capsys.readouterr().out
        assert code == 0
        got = {frozenset(line[1:-1].split(",")) for line in out.splitlines()}
        assert got == {
            frozenset({"T0"}),
            frozenset({"T0", "T1", "T2", "T3", "T4"}),
            frozenset({"T0", "T1", "T5", "T6", "T4"}),
            frozenset({"T0", "T1", "T2", "T5", "T3", "T6", "T4"}),
        }


def test_criterion_2_fig6_fixpoint():
    with _Criterion(2, "fig6 fixpoint reproduction", 1):
        graph = build_reachability(fixture_net("fig6"))
        p1 = graph.keys().index("P1")
        cycles = find_cycles(graph)
        (seed,) = [EdgeSet.from_path(graph, p, graph.initial)
                   for p in find_simple_paths(graph, graph.initial, p1)]
        first_round = {label_set(graph, c.edges)
                       for c in attachable_cycles(seed, cycles)}
        assert first_round == {
            frozenset({"T3", "T4", "T5", "T6", "T7", "T1"}),
            frozenset({"T3", "T4", "T5", "T10", "T11", "T14", "T7", "T1"}),
        }
        family = tts_for_node(graph, p1, cycles)
        expected = {frozenset(s) for s in [
            {"T0"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7"},
            {"T0", "T1", "T3", "T4", "T5", "T7", "T10", "T11", "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T10", "T11", "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T7", "T10", "T11", "T12", "T13",
             "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T7", "T8", "T9", "T10", "T11",
             "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
             "T11", "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T10", "T11", "T12",
             "T13", "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T7", "T8", "T9", "T10", "T11",
             "T12", "T13", "T14"},
            {"T0", "T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
             "T11", "T12", "T13", "T14"},
        ]}
        assert family == expected


def test_criterion_3_table_1(capsys):
    with _Criterion(3, "table 1 reproduction", 2):
        code = main(["map", "--old", fx("fig8_old"), "--new", fx("fig8_new"),
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        import csv as csvmod
        import io
        rows = {r[0]: (set(r[1].split(";")) if r[1] else set(), r[2])
                for r in list(csvmod.reader(io.StringIO(out)))[1:]}
        assert len(rows) == 13
        mapped = {
            "{p3,p7}": {"{p4,p7}"},
            "{p3,p6}": {"{p13,p3}", "{p4,p6}"},
            "{p2,p6}": {"{p13,p2}"},
            "{p1}": {"{p1}", "{p12,p2}"},
        }
        for marking, expected in mapped.items():
            assert rows[marking] == (expected, "false"), marking
        region = {"{p2,p7}", "{p4,p6}", "{p4,p7}", "{p5,p6}", "{p5,p7}",
                  "{p8}", "{p9}", "{p10}", "{p11}"}
        for marking in region:
            assert rows[marking] == (set(), "true"), marking


def test_criterion_4_oracle_equivalence():
    with _Criterion(4, "TTS oracle agreement on 100 nets", 60):
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            net = random_wfnet(GenParams(seed=seed, max_places=8,
                                         max_transitions=10))
            graph = build_reachability(net)
            if len(graph.nodes) > 12:
                continue
            families = label_families(graph)
            for node in graph.nodes:
                assert families[node] == oracle_tts(graph, node), (seed, node)
            checked += 1


def test_criterion_5_identity_migration():
    with _Criterion(5, "identity migration on 50 nets", 30):
        for seed in range(50):
            net = random_wfnet(GenParams(seed=seed, max_places=6,
                                         max_transitions=8))
            table = find_equivalence_mapping(net, net)
            assert change_region(table) == set(), seed
            for key, equivalents in table.rows:
                assert key in equivalents, (seed, key)


def test_criterion_6_mapping_oracle_equivalence():
    with _Criterion(6, "mapping oracle agreement on 50 pairs", 60):
        for seed in range(50):
            old = random_wfnet(GenParams(seed=seed, max_places=6,
                                         max_transitions=7))
            new = random_wfnet(GenParams(seed=seed + 10000, max_places=6,
                                         max_transitions=7))
            table = find_equivalence_mapping(old, new)
            assert ({k: set(eq) for k, eq in table.rows}
                    == oracle_mapping(old, new)), seed


def test_criterion_7_validation_codes():
    with _Criterion(7, "validation fixtures", 1):
        report = validate_structural(fixture_net("fig2b"))
        assert not report.ok
        assert "NOT_ON_PATH" in report.codes()

        net = fixture_net("sequence")
        structural = validate_structural(net)
        assert structural.ok
        behavioral = validate_behavioral(build_reachability(net))
        assert behavioral.ok


def test_criterion_8_cli_determinism(capsys):
    with _Criterion(8, "CLI byte determinism", 30):
        tts_marking = {"sequence": "p2", "fig2b": "p2", "fig4": "P2",
                       "fig6": "P1", "fig8_old": "p2,p6",
                       "fig8_new": "p13,p2"}
        runs = []
        for name in FIXTURE_NAMES:
            runs.append(["validate", fx(name)])
            runs.append(["reach", fx(name)])
            runs.append(["tts", fx(name), "--marking", tts_marking[name]])
        for fmt in ("table", "json", "csv"):
            runs.append(["map", "--old", fx("fig8_old"),
                         "--new", fx("fig8_new"), "--format", fmt])
        for argv in runs:
            code1 = main(list(argv))
            captured1 = capsys.readouterr()
            code2 = main(list(argv))
            captured2 = capsys.readouterr()
            assert code1 == code2, argv
            assert captured1.out == captured2.out, argv
            assert captured1.err == captured2.err, argv
