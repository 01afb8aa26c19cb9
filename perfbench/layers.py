"""Which calls into repro are timed, and the per-layer metrics built from them.

Each span name is ``<layer>.<stage>`` after the ``src/repro`` module
that owns the function.  Kernel names carry a digest that changes from
process to process (see NOTES.md), so per-kernel numbers are labelled
by kernel family only: the name prefix ``eval``, ``fus`` or ``red``.
"""

from __future__ import annotations

import itertools
import statistics

from tracer import NAME, LABEL, OP, self_times


def _family(name: str) -> str:
    return name.split("_", 1)[0]


def _launch_family(args, result) -> str:
    return _family(args[1].name)          # Device.launch(self, kernel, ...)


def _compiled_family(args, result) -> str | None:
    return _family(result.name) if result is not None else None


_solves = itertools.count()


def _solve_request(args) -> str:
    return f"solve{next(_solves)}"


def _session_request(args) -> str:
    return f"session:{args[0].name}"      # Session.step(self)


#: (module, function or Class.method, span name[, label[, request]]);
#: ``request`` starts the request that one trajectory, solve or served
#: session's spans share (see ``Tracer.begin``)
TARGETS = [
    ("repro.hmc.hmc", "HMC.trajectory", "hmc.trajectory", None,
     lambda args: "trajectory"),
    ("repro.qcd.solver", "cg", "qcd.solve", None, _solve_request),
    ("repro.qcd.solver", "multishift_cg", "qcd.solve", None, _solve_request),
    ("repro.qcd.solver", "bicgstab", "qcd.solve", None, _solve_request),
    ("repro.core.evaluator", "evaluate", "core.evaluate"),
    ("repro.core.lint", "check_assignment", "core.lint"),
    ("repro.core.fusion", "FusionQueue.flush", "core.fusion.flush"),
    ("repro.core.reduction", "norm2", "core.reduction"),
    ("repro.core.reduction", "innerProduct", "core.reduction"),
    ("repro.core.reduction", "innerProductReal", "core.reduction"),
    ("repro.core.reduction", "sum_sites", "core.reduction"),
    ("repro.core.codegen", "build_expression_kernel", "core.codegen"),
    ("repro.core.codegen", "build_fused_kernel", "core.codegen"),
    ("repro.core.reduction", "_build_reduction_kernel", "core.codegen"),
    ("repro.ir.pipeline", "prepare_module", "ir.prepare_module"),
    ("repro.ptx.verifier", "run_passes", "ptx.verify"),
    ("repro.ptx.absint", "analyze_module", "ptx.absint"),
    ("repro.ptx.liveness", "max_live_registers", "ptx.liveness"),
    ("repro.driver.parser", "parse_ptx", "driver.parse"),
    ("repro.driver.jitcompiler", "compile_ptx", "driver.compile_ptx",
     _compiled_family),
    # the sim backend's build is the PTX -> Python translation inside
    # compile_ptx; other backends build in select_backend
    ("repro.driver.jitcompiler", "_Translator.translate",
     "driver.backend_build"),
    ("repro.driver.backends", "select_backend", "driver.backend_build"),
    ("repro.device.gpu", "Device.launch", "device.launch", _launch_family),
    ("repro.device.gpu", "Device.reduce_f64", "device.reduce_f64"),
    ("repro.device.gpu", "Device.memcpy_dtoh", "device.memcpy_dtoh"),
    ("repro.memory.cache", "FieldCache.make_available",
     "memory.make_available"),
    ("repro.memory.cache", "FieldCache.ensure_host", "memory.ensure_host"),
    ("repro.serve.server", "Server.drain", "serve.drain"),
    ("repro.serve.tenant", "Session.step", "serve.step", None,
     _session_request),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS})
FAMILIES = ("eval", "fus", "red")

#: per-layer metrics that are not ``<span>.calls`` / ``<span>.self_s``:
#: name -> (unit, better)
DERIVED = {
    "core.fusion.stmts_per_launch": ("ratio", "higher"),
    "core.module_cache.hit_ratio": ("ratio", "higher"),
    "ptx.absint.per_kernel": ("ratio", "lower"),
    "ptx.liveness.per_kernel": ("ratio", "lower"),
    "driver.parse.per_kernel": ("ratio", "lower"),
    "driver.kernel_cache.hit_ratio": ("ratio", "higher"),
    "driver.kernels_compiled": ("count", "lower"),
    **{f"driver.kernels_compiled.{f}": ("count", "lower") for f in FAMILIES},
    **{f"device.launches.{f}": ("count", "lower") for f in FAMILIES},
    "device.kernel_body_s": ("s", "lower"),
    "device.modeled_kernel_s": ("s", "lower"),
    "device.modeled_jit_s": ("s", "lower"),
    "device.modeled_transfer_s": ("s", "lower"),
    "device.modeled_bytes": ("bytes", "lower"),
    "memory.hit_ratio": ("ratio", "higher"),
    "memory.page_ins": ("count", "lower"),
    "memory.bytes_paged_in": ("bytes", "lower"),
    "memory.spills": ("count", "lower"),
    "host.syncs": ("count", "lower"),
    "runtime.overlap_fraction": ("ratio", "higher"),
    "runtime.critical_path_s": ("s", "lower"),
    "serve.decisions": ("count", "lower"),
    "serve.jit.cross_tenant_hits": ("count", "higher"),
    "serve.queue_wait_modeled_s": ("s", "lower"),
    "serve.interactive_p50_ms": ("ms", "lower"),
    "serve.interactive_tail_ms": ("ms", "lower"),
    "qcd.cg.iterations": ("count", "lower"),
    "hmc.trajectory.launches": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def op_span_summary(spans, op_id) -> dict:
    """Calls, self seconds and labels per span name for one operation.

    The operation's own root span (name ``op``) is not a layer: its
    self time is the op's wall time that no layer span covers.
    """
    selected = [s for s in spans if s[OP] == op_id]
    selfs = self_times(selected)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    labels: dict[tuple[str, str], int] = {}
    for s, t in zip(selected, selfs):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t
        if s[LABEL] is not None:
            key = (s[NAME], s[LABEL])
            labels[key] = labels.get(key, 0) + 1
    return {"calls": calls, "self_s": self_s, "labels": labels}


def op_layer_metrics(summary: dict, delta: dict, op) -> dict:
    """The per-layer metrics of one traced operation.

    ``delta`` holds the program's own counters over the operation (see
    ``workloads.counters``); ``op`` is the workload's operation record.
    """
    calls, self_s, labels = (summary["calls"], summary["self_s"],
                             summary["labels"])
    m = {}
    for span in SPAN_NAMES:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    body = delta["wall_kernel_time_s"]
    # the launch span's self time excludes the kernel body it runs
    m["device.launch.self_s"] = max(m["device.launch.self_s"] - body, 0.0)
    compiled = delta["kernel_cache_misses"]
    m["core.fusion.stmts_per_launch"] = _ratio(delta["fused_statements"],
                                               delta["fusion_groups"])
    m["core.module_cache.hit_ratio"] = _ratio(
        delta["module_cache_hits"],
        delta["module_cache_hits"] + delta["module_cache_misses"], 1.0)
    m["ptx.absint.per_kernel"] = _ratio(calls.get("ptx.absint", 0), compiled)
    m["ptx.liveness.per_kernel"] = _ratio(calls.get("ptx.liveness", 0),
                                          compiled)
    m["driver.parse.per_kernel"] = _ratio(calls.get("driver.parse", 0),
                                          compiled)
    m["driver.kernel_cache.hit_ratio"] = _ratio(
        delta["kernel_cache_hits"],
        delta["kernel_cache_hits"] + compiled, 1.0)
    m["driver.kernels_compiled"] = compiled
    for f in FAMILIES:
        m[f"driver.kernels_compiled.{f}"] = labels.get(
            ("driver.compile_ptx", f), 0)
        m[f"device.launches.{f}"] = labels.get(("device.launch", f), 0)
    m["device.kernel_body_s"] = body
    m["device.modeled_kernel_s"] = delta["modeled_kernel_time_s"]
    m["device.modeled_jit_s"] = delta["modeled_jit_time_s"]
    m["device.modeled_transfer_s"] = delta["modeled_transfer_time_s"]
    m["device.modeled_bytes"] = delta["modeled_kernel_bytes"]
    m["memory.hit_ratio"] = _ratio(
        delta["field_cache_hits"],
        delta["field_cache_hits"] + delta["field_cache_misses"], 1.0)
    m["memory.page_ins"] = delta["page_ins"]
    m["memory.bytes_paged_in"] = delta["bytes_paged_in"]
    m["memory.spills"] = delta["spills"]
    m["host.syncs"] = (calls.get("device.reduce_f64", 0)
                       + calls.get("device.memcpy_dtoh", 0))
    m["runtime.overlap_fraction"] = op.overlap_fraction
    m["runtime.critical_path_s"] = op.critical_path_s
    m["serve.decisions"] = delta["serve_decisions"]
    m["serve.jit.cross_tenant_hits"] = delta["cross_tenant_hits"]
    m["serve.queue_wait_modeled_s"] = op.queue_wait_s
    m["serve.interactive_p50_ms"] = op.interactive_p50_ms
    m["serve.interactive_tail_ms"] = op.interactive_tail_ms
    m["qcd.cg.iterations"] = op.iterations
    m["hmc.trajectory.launches"] = op.trajectory_launches
    m["trace.unattributed_s"] = self_s.get("op", 0.0)
    return m


#: per-layer metrics read from the wall clock; the rest repeat exactly
WALL_METRICS = {"device.kernel_body_s", "trace.unattributed_s",
                "trace.overhead_frac"}


def is_wall(name: str) -> bool:
    return name.endswith(".self_s") or name in WALL_METRICS


def combine(per_op: list[dict]) -> dict:
    """One value per metric over the traced operations.

    Wall-clock metrics are the median over the operations.  Every other
    metric is taken from the first traced operation, so it repeats
    exactly between runs of one seed however many operations fit in
    the run.
    """
    return {name: (statistics.median(m[name] for m in per_op)
                   if is_wall(name) else value)
            for name, value in per_op[0].items()}
