"""CLI fuzz: every net document ends in a result or a coded error.

Documents are a small valid net with some names redrawn from an alphabet
holding ``,``, ``;``, a line break and a lone surrogate, and shape
mutations on top.  Each goes through ``validate`` and ``map`` in all three
formats, with stdout and stderr as strict UTF-8 streams, so a name that
cannot be printed fails the run instead of passing through a ``StringIO``
unnoticed.
"""

import contextlib
import io
import json
import re
import tempfile

from hypothesis import example, given, settings, strategies as st

from wfmig.cli import main

from conftest import LONG_INT, SURROGATE

TEXT = st.text(alphabet=["s", "m", "A", "x", "y", "\xe9", ",", ";", "\n",
                         "\ud800"],
               min_size=1, max_size=2)

MUTATIONS = ("drop_arc", "add_arc", "weighted_arc", "arc_by_label",
             "bare_label", "empty", "initial_marking", "places_not_list")


@st.composite
def net_documents(draw):
    """s -t-> m -u-> e, where u is labeled A, with one or two names
    redrawn from ``TEXT`` and up to two shape mutations."""
    names = ["s", "m", "e", "t", "u", "A"]
    for i, name in draw(st.dictionaries(st.integers(0, 5), TEXT,
                                        min_size=1, max_size=2)).items():
        names[i] = name
    s, m, e, t, u, label = names
    doc = {"places": [s, m, e],
           "transitions": [t, {"id": u, "label": label}],
           "arcs": [[s, t], [t, m], [m, u], [u, e]]}
    for op in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        if op == "drop_arc" and doc["arcs"]:
            doc["arcs"].pop(draw(st.integers(0, len(doc["arcs"]) - 1)))
        elif op in ("add_arc", "weighted_arc"):
            arc = draw(st.lists(st.sampled_from([s, m, e, t, u, label]),
                                min_size=2, max_size=2))
            doc["arcs"].append(arc + [2] if op == "weighted_arc" else arc)
        elif op == "arc_by_label":
            doc["arcs"] = [[label if end == u else end for end in arc]
                           for arc in doc["arcs"]]
        elif op == "bare_label":
            doc["transitions"][1] = label
        elif op == "empty" and isinstance(doc["transitions"][1], dict):
            doc["transitions"][1]["empty"] = True
        elif op == "initial_marking":
            doc["initial_marking"] = [draw(st.sampled_from([s, m, e]))]
        elif op == "places_not_list":
            doc["places"] = s
    return json.dumps(doc)


def run_strict(argv):
    """``main(argv)`` with stdout and stderr as strict UTF-8 text streams;
    returns (exit code, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        out.flush()
        err.flush()
    return code, err.buffer.getvalue().decode("utf-8")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(net_documents())
@example(SURROGATE)
@example(LONG_INT)
def test_cli_never_raises_and_codes_every_usage_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = "%s/net.json" % tmp
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        runs = [["validate", path]] + [
            ["map", "--old", path, "--new", path, "--format", fmt]
            for fmt in ("table", "csv", "json")]
        for argv in runs:
            code, err = run_strict(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert re.fullmatch(r"[A-Z_]+: .*", err.splitlines()[-1])
