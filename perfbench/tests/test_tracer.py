"""The tracer: self-time arithmetic, restoring wrappers, and traced
results bitwise equal to untraced ones."""

import numpy as np
import pytest

from layers import TARGETS, op_span_summary
from tracer import REQUEST, Tracer, self_times


def _span(name, start, end, parent, op=0):
    return [name, None, start, end, parent, op, f"op{op}"]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.5, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),          # overlaps x on [3, 5]
        _span("z", 9.0, 12.0, 0),         # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summary_counts_calls_per_operation():
    spans = [
        _span("op", 0.0, 4.0, -1, op=1),
        _span("core.evaluate", 0.5, 1.0, 0, op=1),
        _span("core.evaluate", 1.0, 2.0, 0, op=1),
        _span("core.evaluate", 0.0, 9.0, -1, op=2),
    ]
    summary = op_span_summary(spans, 1)
    assert summary["calls"] == {"op": 1, "core.evaluate": 2}
    assert summary["self_s"]["op"] == pytest.approx(2.5)


def test_spans_share_the_request_their_outermost_starter_opened():
    tracer = Tracer()
    tracer.op = 7
    root = tracer.begin("op")
    solve = tracer.begin("qcd.solve", "solve1")
    inner = tracer.begin("qcd.solve", "solve2")     # nested: no new request
    launch = tracer.begin("device.launch")
    for idx in (launch, inner, solve):
        tracer.end(idx)
    loose = tracer.begin("core.evaluate")
    tracer.end(loose)
    tracer.end(root)
    requests = [s[REQUEST] for s in tracer.spans]
    assert requests == ["op7", "op7/solve1", "op7/solve1", "op7/solve1",
                        "op7"]


def _run_sessions():
    """Two small served sessions; returns their results."""
    from repro.serve import Server, cg_diag_workload

    srv = Server()
    tenants = [srv.tenant(f"t{i}") for i in range(2)]
    sessions = [srv.submit(t, cg_diag_workload(dims=(2, 2, 2, 2), seed=5 + i,
                                               max_iter=4), name=f"t{i}-s")
                for i, t in enumerate(tenants)]
    srv.drain()
    return [s.result for s in sessions]


def _bound_names():
    """Every (module, name) -> object binding of the patched functions,
    plus the patched methods."""
    import sys

    originals = set()
    for modname, qualname, *_ in TARGETS:
        module = sys.modules[modname]
        if "." in qualname:
            cls, attr = qualname.split(".")
            originals.add((modname, qualname,
                           vars(getattr(module, cls)).get(attr)))
        else:
            originals.add((modname, qualname, getattr(module, qualname)))
    return originals


def test_traced_run_restores_every_wrapper_and_changes_no_result():
    import sys

    import repro.serve  # noqa: F401  (load the modules TARGETS names)
    for modname, *_ in TARGETS:
        __import__(modname)
    untraced = _run_sessions()
    before = _bound_names()

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        tracer.active = True
        tracer.op = 0
        traced = _run_sessions()
        tracer.active = False
    finally:
        tracer.restore()

    assert _bound_names() == before
    wrappers = {id(w) for w, _ in tracer._wrappers.values()}
    leftover = [f"{name}.{key}" for name, mod in list(sys.modules.items())
                if name.startswith("repro") and mod is not None
                for key, value in vars(mod).items() if id(value) in wrappers]
    assert leftover == []

    names = {s[0] for s in tracer.spans}
    assert {"serve.drain", "serve.step", "core.evaluate",
            "device.launch"} <= names
    steps = {s[REQUEST] for s in tracer.spans if s[0] == "serve.step"}
    assert steps == {"op0/session:t0-s", "op0/session:t1-s"}
    for a, b in zip(untraced, traced):
        assert np.array_equal(a["x"], b["x"])
        assert a["residual"] == b["residual"]
        assert a["iterations"] == b["iterations"]
