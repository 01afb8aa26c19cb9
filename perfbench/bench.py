"""One benchmark run of one workload, in the process that run.py started.

Prints the environment, a readable report and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "op_s": "s", "iter_ms": "ms",
              "modeled_s": "s", "peak_rss_mib": "MiB"}

#: process start-ups timed per run (this process and fresh ones after it)
STARTUPS = 3
#: what this process imports before its first set-up
STARTUP_IMPORTS = ("import numpy, repro.diagnostics, repro.driver.backends, "
                   "repro.ir.pipeline")

#: wall seconds of ``host_probe()`` on the reference host, a round value
#: in the range it took on the VM where the bounds were set (NOTES.md);
#: wall-clock metrics are reported at that host's speed
REF_PROBE_S = 0.5
#: a process that used more CPU during a probe than this multiple of the
#: probe thread's own ran another busy thread, which slowed the probe
PROBE_CPU_SHARE_MAX = 1.5

#: each workload's own name for an end-to-end metric, printed beside it
ALIASES = {
    "hmc_warm": {"op_s": "traj_s"},
    "solve_cold": {"op_s": "cold_solve_s", "iter_ms": "warm_cg_iter_ms"},
    "serve_mix": {"op_s": "serve_wall_s"},
}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs (for the benchmark's own tests)")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    from repro import diagnostics as d
    from repro.driver.backends import resolve_backend_mode
    from repro.ir.pipeline import selected_passes

    return {
        "modes": {"REPRO_VERIFY": d.verify_mode(),
                  "REPRO_FUSION": d.fusion_mode(),
                  "REPRO_STREAMS": d.stream_mode(),
                  "REPRO_IR": d.ir_mode(),
                  "REPRO_IR_PASSES": ",".join(selected_passes()),
                  "REPRO_BACKEND": resolve_backend_mode(),
                  "REPRO_SERVE": d.serve_mode(),
                  "REPRO_RESILIENCE": d.resilience_mode(),
                  "REPRO_FAULTS": d.faults_mode()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": seed,
    }


def expected_failures(workload: str, seed: int, results: dict) -> list[str]:
    """Compare the first operation's results with the recorded ones."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        return []
    fails = []
    for key, want in recorded.items():
        got = results[key]
        ok = (got == want if isinstance(want, int)
              else math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9))
        if not ok:
            fails.append(f"{key} = {got!r}, recorded {want!r} for seed {seed}")
    return fails


def startup_samples(first: float) -> list[float]:
    """``first`` plus the wall time of fresh interpreters that import
    what this one imported before its first set-up."""
    import subprocess

    samples = [first]
    for _ in range(STARTUPS - 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True)
        samples.append(time.perf_counter() - t0)
    return samples


_PROBE_FIELD = np.random.default_rng(0).standard_normal(
    (256, 24)).view(np.complex128)


def host_probe() -> tuple[float, float]:
    """Wall seconds of a fixed piece of pure-Python and small-NumPy work
    that touches nothing of the program, which is how fast the host runs
    Python code like the program's at this moment; and the process's
    CPU time over the probe thread's own in that time."""
    gc.disable()
    w0, c0, t0 = time.perf_counter(), time.process_time(), time.thread_time()
    for _ in range(1400):
        a = _PROBE_FIELD
        for _ in range(20):
            a = a * 0.5 + _PROBE_FIELD.conj()
        float(np.vdot(a, a).real)
        d = {f"k{i}": (i, str(i), [i] * 2) for i in range(300)}
        sorted(d.items(), key=lambda kv: kv[1][0] ^ 5)
    wall = time.perf_counter() - w0
    share = (time.process_time() - c0) / max(time.thread_time() - t0, 1e-9)
    gc.enable()
    return wall, share


def timeline_window(device, n0: int):
    """(overlap fraction, critical path) of the modeled spans added
    since index ``n0``, rebased to start at 0."""
    from repro.runtime.timeline import Timeline

    spans = device.runtime.timeline.spans[n0:]
    if not spans:
        return 0.0, 0.0
    base = min(s.t0 for s in spans)
    view = Timeline()
    for s in spans:
        view.add_span(s.lane, s.name, s.cat, s.t0 - base, s.t1 - base,
                      deps=tuple(d - n0 for d in s.deps if d >= n0))
    return view.overlap_fraction, view.critical_path_s


def run(args, t_start: float) -> dict:
    from layers import TARGETS, combine, op_layer_metrics, op_span_summary
    from tracer import Tracer
    from workloads import WORKLOADS, counters

    env = environment(args.seed)
    print(json.dumps({"env": env}), flush=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        # before any context exists: contexts capture bound methods
        tracer.install(TARGETS)
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)

    startup_s = time.time() - t_start
    setups, ops, traced, untraced, layer_ops = [], [], [], [], []
    probes = [host_probe()]
    attempted = failed = 0
    failures: list[str] = []
    measured = 0.0
    i = 0
    try:
        while True:
            # untraced first: one-time costs of a fresh process land
            # on the comparison operation, not on the traced one
            is_traced = tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            if wl.setup():
                setups.append(time.perf_counter() - t0)
            if tracer is not None:
                # traced and untraced operations do the same work
                wl.rewind()
            scope = wl.scope()
            before = counters(*scope)
            n0 = len(scope[0].runtime.timeline.spans)
            # garbage left by set-up or the last operation is not
            # this operation's cost
            gc.collect()
            probes.append(host_probe())
            if is_traced:
                tracer.op = i
                tracer.active = True
                root = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                op = wl.run()
            except Exception as exc:  # an operation that fails is counted
                failures.append(f"operation {i}: {type(exc).__name__}: {exc}")
                attempted += 1
                failed += 1
                break
            finally:
                if is_traced:
                    tracer.end(root)
                    tracer.active = False
            elapsed = time.perf_counter() - t0
            delta = {k: v - before[k] for k, v in counters(*scope).items()}
            op.modeled_s = delta["clock"]
            op.overlap_fraction, op.critical_path_s = timeline_window(
                scope[0], n0)
            fails = wl.check(op, delta)
            if i == 0 and not args.tiny:
                fails += expected_failures(args.workload, args.seed,
                                           op.results)
            if is_traced and op.results != ops[-1].results:
                fails.append(f"traced results {op.results} differ from "
                             f"untraced {ops[-1].results}")
            failures += [f"operation {i}: {f}" for f in fails]
            attempted += op.attempted
            failed += min(len(fails), op.attempted)
            ops.append(op)
            per_launch = elapsed / max(delta["kernel_launches"], 1)
            if is_traced:
                traced.append(per_launch)
                layer_ops.append(op_layer_metrics(
                    op_span_summary(tracer.spans, i), delta, op))
            elif tracer is not None:
                untraced.append(per_launch)
            measured += elapsed
            i += 1
            if (measured >= args.seconds and len(ops) >= wl.MIN_OPS
                    and (tracer is None or traced)):
                break
        probes.append(host_probe())
        final = wl.final_checks()
    finally:
        if tracer:
            tracer.restore()
    failures += final
    failed = min(attempted, failed + len(final))
    startups = startup_samples(startup_s)
    busy = [share for _, share in probes if share > PROBE_CPU_SHARE_MAX]
    if busy:
        failures.append(f"{len(busy)} host probes ran beside another busy "
                        f"thread (process/probe CPU up to {max(busy):.2f})")

    probe_s = statistics.median(w for w, _ in probes)
    result = {"correct": not failures and bool(ops), "attempted": attempted,
              "failed": failed, "failures": failures, "ops": ops,
              "probe_s": probe_s}
    if tracer and layer_ops:
        layer = combine(layer_ops)
        layer["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if untraced else 0.0)
        result["layer"] = layer
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_chrome_trace(os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json"))
    if ops:
        iter_ms = [ms for op in ops for ms in op.iter_ms]
        result["wall"] = {
            "setup_s": statistics.median(startups) + statistics.median(setups),
            "op_s": statistics.median(op.wall_s for op in ops),
            "iter_ms": statistics.median(iter_ms),
        }
        # the host's speed drifts by a quarter within minutes; the median
        # probe of the run scales it out (one probe alone is noisier)
        speed = REF_PROBE_S / probe_s
        result["e2e"] = {
            **{k: v * speed for k, v in result["wall"].items()},
            # deterministic for a seed: taken from the first operation
            "modeled_s": ops[0].modeled_s,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["samples"] = {"setup_s": len(startups), "op_s": len(ops),
                             "iter_ms": len(iter_ms), "modeled_s": 1,
                             "peak_rss_mib": 1}
    return result


def report(args, result: dict) -> None:
    """Readable lines: every metric by name, with unit and sample count."""
    from workloads import tail_quantile

    w = args.workload
    print(f"# {w} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / max(result['attempted'], 1):.4f}")
    for f in result["failures"]:
        print(f"# FAILED {f}")
    if result["ops"]:
        print(f"# results {json.dumps(result['ops'][0].results)}")
    if "e2e" in result and not args.trace:
        print(f"  {'host_probe_s':32s} {result['probe_s']:14.6g} s     "
              f"median; reference host {REF_PROBE_S} s")
        for name, value in result["e2e"].items():
            alias = ALIASES[w].get(name)
            label = f"{name} ({alias})" if alias else name
            wall = result["wall"].get(name)
            print(f"  {label:32s} {value:14.6g} {END_TO_END[name]:5s} "
                  f"median of n={result['samples'][name]}"
                  + (f", {wall:.6g} on this host" if wall else ""))
        first = result["ops"][0]
        if first.interactive_ms:
            n = len(first.interactive_ms)
            q = tail_quantile(n)
            print(f"  {'interactive_p50_ms':32s} {first.interactive_p50_ms:14.6g}"
                  f" ms    modeled, from arrival, n={n}")
            if q:
                print(f"  {'interactive_tail_ms':32s} "
                      f"{first.interactive_tail_ms:14.6g} ms    modeled "
                      f"p{round(q * 100)}, n={n}")
    units = layer_units()
    for name, value in sorted(result.get("layer", {}).items()):
        print(f"  {name:32s} {value:14.6g} {units[name]}")


def layer_units() -> dict:
    from layers import metric_units

    return {name: unit for name, (unit, _) in metric_units().items()}


def main(argv=None) -> int:
    t_start = float(os.environ.get("PERFBENCH_T0", time.time()))
    args = parse_args(argv)
    result = run(args, t_start)
    report(args, result)
    if args.trace:
        units = layer_units()
        values = result.get("layer", {})
    else:
        units = END_TO_END
        values = result.get("e2e", {})
    if set(values) != set(units):
        print("# no result: the run produced no measurement", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
