"""The benchmark's traced run wraps package functions by module attribute;
these are the names the package must keep for it to work."""

import pathlib

import wfmig
import wfmig.cli  # noqa: F401  (the benchmark imports it the same way)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_wrap_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    points = tracer.wrap_points(wfmig)
    assert points
    for module, attr, name, _ in points:
        assert callable(getattr(module, attr, None)), (module.__name__,
                                                      attr, name)
