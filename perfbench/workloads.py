"""The benchmark's workloads: a warm HMC trajectory, a cold clover solve
and a served tenant mix.

Every workload builds its inputs from the seed it is given.  The loop
in ``bench.py`` calls ``setup()`` before each timed operation (it may
do nothing), then ``run()`` inside the timed region, then ``check()``
outside it, and ``final_checks()`` once after the last operation.
``run()`` consumes its results (host reads) before it returns.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    """One timed operation and what the metrics need from it."""

    #: wall seconds of the workload's headline operation
    wall_s: float
    #: milliseconds per solver iteration, one sample per warm phase;
    #: ``iter_ms`` is their median over every operation of the run
    iter_ms: list
    iterations: int
    #: operations inside this one that count in ``attempted``
    attempted: int
    #: values checked against expected.json for recorded seeds
    results: dict = field(default_factory=dict)
    #: modeled device seconds: the device clock's advance
    modeled_s: float = 0.0
    trajectory_launches: int = 0
    queue_wait_s: float = 0.0
    interactive_ms: list = field(default_factory=list)
    overlap_fraction: float = 0.0
    critical_path_s: float = 0.0
    #: workload-private state handed from run() to check()
    state: object = None

    @property
    def interactive_p50_ms(self) -> float:
        return float(np.median(self.interactive_ms)) if self.interactive_ms else 0.0

    @property
    def interactive_tail_ms(self) -> float:
        q = tail_quantile(len(self.interactive_ms))
        return float(np.quantile(self.interactive_ms, q)) if q else 0.0


def tail_quantile(n: int) -> float | None:
    """The highest percentile (as a quantile) with at least ten of
    ``n`` samples beyond it, or ``None`` if there is none."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n)) / 100


def counters(device, kernel_cache, contexts, server=None) -> dict:
    """The program's own cumulative counters over one scope."""
    st = device.stats
    c = {
        "clock": device.clock,
        "kernel_launches": st.kernel_launches,
        "wall_kernel_time_s": st.wall_kernel_time_s,
        "modeled_kernel_time_s": st.modeled_kernel_time_s,
        "modeled_jit_time_s": st.modeled_jit_time_s,
        "modeled_transfer_time_s": st.modeled_transfer_time_s,
        "modeled_kernel_bytes": st.modeled_kernel_bytes,
        "kernel_cache_hits": kernel_cache.stats.hits,
        "kernel_cache_misses": kernel_cache.stats.misses,
        "serve_decisions": server.stats.decisions if server else 0,
        "cross_tenant_hits": (server.kernel_cache.cross_tenant_hits
                              if server else 0),
    }
    for key in ("module_cache_hits", "module_cache_misses",
                "fused_statements", "fusion_groups"):
        c[key] = sum(getattr(ctx.stats, key) for ctx in contexts)
    for key, attr in (("field_cache_hits", "hits"),
                      ("field_cache_misses", "misses"),
                      ("page_ins", "page_ins"),
                      ("bytes_paged_in", "bytes_paged_in"),
                      ("spills", "spills")):
        c[key] = sum(getattr(ctx.field_cache.stats, attr) for ctx in contexts)
    return c


# -- hmc_warm -----------------------------------------------------------------


class HMCWarm:
    """The action of examples/hmc_gauge_generation.py with one MD step
    per level: 2+1 flavours (Hasenbusch and RHMC terms) on a three-level
    integrator, on 2x4^3.  Closed loop: one trajectory after another."""

    name = "hmc_warm"
    MIN_OPS = 1
    TAU = 0.1
    TOL = 1e-9
    #: the warm-up trajectory only has to compile every kernel; a loose
    #: solver tolerance runs the same kernels in fewer iterations
    WARMUP_TOL = 1e-2
    DH_MAX = 0.5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.dims = (2, 2, 2, 2) if tiny else (2, 4, 4, 4)
        self.hmc = None

    def _make(self, tol: float):
        from repro.hmc import (HMC, GaugeMonomial, HasenbuschRatioMonomial,
                               Level, MultiTimescaleIntegrator,
                               OneFlavorRationalMonomial,
                               TwoFlavorWilsonMonomial, fourth_root, inv_sqrt)
        from repro.qcd.gauge import weak_gauge
        from repro.qcd.wilson import WilsonParams
        from repro.qdp import Lattice

        rng = np.random.default_rng(self.seed)
        u = weak_gauge(Lattice(self.dims), rng, eps=0.2)
        light = WilsonParams(kappa=0.115)
        heavy = WilsonParams(kappa=0.10)
        strange = WilsonParams(kappa=0.105)
        levels = [
            Level([HasenbuschRatioMonomial(light, heavy, tol=tol),
                   OneFlavorRationalMonomial(
                       strange, inv_sqrt(0.05, 6.0, degree=12),
                       fourth_root(0.05, 6.0, degree=12), tol=tol)],
                  n_steps=1),
            Level([TwoFlavorWilsonMonomial(heavy, tol=tol)], n_steps=1),
            Level([GaugeMonomial(beta=5.6)], n_steps=1, scheme="omelyan"),
        ]
        return HMC(u, MultiTimescaleIntegrator(levels), rng)

    def setup(self) -> bool:
        if self.hmc is not None:
            return False
        from repro.core import qdp_init

        self.ctx = qdp_init()
        self._make(self.WARMUP_TOL).trajectory(tau=self.TAU)
        # the timed trajectories start again from the seeded inputs
        self.hmc = self._make(self.TOL)
        return True

    def rewind(self) -> None:
        """Start again from the seeded inputs: the next trajectory
        repeats the first one."""
        self.hmc = self._make(self.TOL)

    def scope(self):
        return self.ctx.device, self.ctx.kernel_cache, [self.ctx], None

    def run(self) -> Op:
        t0 = time.perf_counter()
        r = self.hmc.trajectory(tau=self.TAU)
        wall = time.perf_counter() - t0
        return Op(wall_s=wall,
                  iter_ms=[1e3 * wall / max(r.solver_iterations, 1)],
                  iterations=r.solver_iterations, attempted=1,
                  trajectory_launches=r.kernels_launched,
                  results={"iterations": r.solver_iterations,
                           "plaquette": r.plaquette,
                           "delta_h": r.delta_h})

    def check(self, op: Op, delta: dict) -> list[str]:
        # every CG converged, or the monomials would have raised
        dh = op.results["delta_h"]
        fails = []
        if not (math.isfinite(dh) and abs(dh) < self.DH_MAX):
            fails.append(f"dH = {dh!r} is not finite and below {self.DH_MAX}")
        if delta["kernel_cache_misses"]:
            fails.append(f"{delta['kernel_cache_misses']} kernels compiled "
                         "in a warm trajectory")
        return fails

    def final_checks(self) -> list[str]:
        return []


# -- solve_cold ---------------------------------------------------------------


class SolveCold:
    """Even-odd Wilson-clover CG on 4^4 in a fresh context (every compile
    cache empty), then the same solve again warm, ``WARM_SOLVES`` times."""

    name = "solve_cold"
    #: a single cold solve spans too little of the host's speed drift,
    #: so every run times at least two
    MIN_OPS = 2
    KAPPA = 0.11
    C_SW = 0.3
    EPS = 0.25
    TOL = 1e-10
    MAX_ITER = 1000
    #: warm repeats per operation, each one ``iter_ms`` sample
    WARM_SOLVES = 2

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.dims = (2, 2, 2, 2) if tiny else (4, 4, 4, 4)

    def setup(self) -> bool:
        """A fresh context and inputs: each operation starts cold."""
        from repro.core import qdp_init
        from repro.qcd.gauge import weak_gauge
        from repro.qdp import Lattice
        from repro.qdp.fields import latt_fermion

        self.ctx = qdp_init()
        self.lattice = Lattice(self.dims)
        rng = np.random.default_rng(self.seed)
        self.u = weak_gauge(self.lattice, rng, eps=self.EPS)
        self.chi = latt_fermion(self.lattice)
        self.chi.gaussian(rng)
        return True

    def scope(self):
        return self.ctx.device, self.ctx.kernel_cache, [self.ctx], None

    def rewind(self) -> None:
        """Nothing to do: every operation starts from fresh inputs."""

    def _solve(self):
        from repro.qcd.cloverop import CloverParams, EvenOddCloverOperator
        from repro.qcd.solver import cg

        m = EvenOddCloverOperator(self.u, CloverParams(
            kappa=self.KAPPA, clover_coeff=self.C_SW))
        b = m.prepare_source(self.chi)
        rhs = m.new_fermion()
        m.apply_dagger(rhs, b)
        x = m.new_fermion()
        res = cg(lambda d, s: m.apply_mdagm(d, s), x, rhs, tol=self.TOL,
                 max_iter=self.MAX_ITER, subset=self.lattice.even)
        return m, rhs, x, res, x.to_numpy()

    def run(self) -> Op:
        t0 = time.perf_counter()
        solves = [self._solve()]
        cold_s = time.perf_counter() - t0
        iter_ms = []
        for _ in range(self.WARM_SOLVES):
            gc.collect()
            t0 = time.perf_counter()
            solves.append(self._solve())
            iter_ms.append(1e3 * (time.perf_counter() - t0)
                           / max(solves[-1][3].iterations, 1))
        return Op(wall_s=cold_s, iter_ms=iter_ms,
                  iterations=sum(sol[3].iterations for sol in solves[1:]),
                  attempted=len(solves),
                  results={"iterations": solves[0][3].iterations},
                  state=solves)

    def check(self, op: Op, delta: dict) -> list[str]:
        from repro.core.reduction import norm2

        fails = []
        even = self.lattice.even
        x_cold = op.state[0][4]
        for k, (m, rhs, x, res, x_np) in enumerate(op.state):
            label = "cold" if k == 0 else f"warm {k}"
            if not res.converged:
                fails.append(f"{label} CG did not converge")
                continue
            # the true residual of the normal equations, recomputed
            ap = m.new_fermion()
            m.apply_mdagm(ap, x)
            rel = math.sqrt(norm2(rhs - ap, subset=even)
                            / norm2(rhs, subset=even))
            if not rel <= self.TOL:
                fails.append(f"{label} true residual {rel:.3e} > {self.TOL}")
            elif not np.array_equal(x_np, x_cold):
                fails.append(f"{label} solution differs bitwise from the "
                             "cold one")
        op.state = None
        return fails

    def final_checks(self) -> list[str]:
        return []


# -- serve_mix ----------------------------------------------------------------


class ServeMix:
    """Interactive and batch tenants submitting CG sessions to one
    ``repro.serve.Server`` under its default policy.  Open loop on the
    modeled clock: Poisson arrivals at ``RATE_PER_S``, about 85% of the
    device's capacity for this mix."""

    name = "serve_mix"
    MIN_OPS = 1
    INTERACTIVE_TENANTS = 3
    INTERACTIVE_WEIGHT = 4.0
    #: interactive sessions run 4 to 10 CG iterations, drawn from the seed
    INTERACTIVE_ITERS = (4, 10)
    SESSIONS_PER_TENANT = 12
    BATCH_SESSIONS = 3
    BATCH_ITERS = 72
    #: session arrivals per modeled second
    RATE_PER_S = 1400.0
    #: no CG here converges early: every session runs max_iter iterations
    TOL = 1e-300

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.dims = (2, 2, 2, 2) if tiny else (4, 4, 4, 4)
        users, per_user, batch = (1, 2, 1) if tiny else (
            self.INTERACTIVE_TENANTS, self.SESSIONS_PER_TENANT,
            self.BATCH_SESSIONS)
        batch_iters = 8 if tiny else self.BATCH_ITERS
        rng = np.random.default_rng(seed)
        lo, hi = self.INTERACTIVE_ITERS
        mix = [("batch", batch_iters)] * batch + [
            (f"user{i}", int(rng.integers(lo, hi + 1)))
            for i in range(users) for _ in range(per_user)]
        self.mix = [mix[k] for k in rng.permutation(len(mix))]
        self.offsets = np.cumsum(rng.exponential(1.0 / self.RATE_PER_S,
                                                 len(mix)))
        self.session_seeds = [int(s) for s in rng.integers(0, 2**31 - 1,
                                                           len(mix))]
        self.rerun_samples = None

    def _workload(self, seed: int, iters: int):
        from repro.serve import cg_diag_workload

        return cg_diag_workload(dims=self.dims, seed=seed, tol=self.TOL,
                                max_iter=iters)

    def setup(self) -> bool:
        """A fresh server whose warm-up tenant compiles every kernel shape."""
        from repro.serve import Server

        self.srv = Server()
        warm = self.srv.tenant("warmup")
        # three iterations: the fusion groups of a looping CG only form
        # once the loop loops
        self.srv.submit(warm, self._workload(self.seed, 3), name="warmup")
        self.srv.drain()
        self.tenants = {name: self.srv.tenant(
            name, weight=1.0 if name == "batch" else self.INTERACTIVE_WEIGHT)
            for name in sorted({n for n, _ in self.mix})}
        return True

    def rewind(self) -> None:
        """Nothing to do: every operation starts from a fresh server."""

    def scope(self):
        ctxs = [t.ctx for t in self.srv.tenants.values()]
        return self.srv.device, self.srv.kernel_cache, ctxs, self.srv

    def run(self) -> Op:
        srv = self.srv
        t0v = srv.vclock_s
        t0 = time.perf_counter()
        sessions = [
            srv.submit(self.tenants[name], self._workload(seed, iters),
                       name=f"{name}-{k}", arrival_s=t0v + off)
            for k, ((name, iters), seed, off) in enumerate(
                zip(self.mix, self.session_seeds, self.offsets))]
        srv.drain()
        wall = time.perf_counter() - t0
        done = [s for s in sessions if s.state == "done"]
        iterations = sum(s.result["iterations"] for s in done)
        return Op(
            wall_s=wall, iter_ms=[1e3 * wall / max(iterations, 1)],
            iterations=iterations,
            attempted=len(sessions),
            queue_wait_s=sum(s.started_s - s.arrival_s for s in done),
            interactive_ms=[s.latency_s * 1e3 for s in done
                            if not s.name.startswith("batch")],
            results={"iterations": iterations,
                     "residual_sum": sum(s.result["residual"] for s in done)},
            state=sessions)

    def check(self, op: Op, delta: dict) -> list[str]:
        fails = []
        for s, (_, iters) in zip(op.state, self.mix):
            if s.state != "done":
                fails.append(f"session {s.name} ended {s.state}: {s.error}")
            elif s.result["iterations"] != iters:
                fails.append(f"session {s.name} ran {s.result['iterations']} "
                             f"of {iters} iterations")
        if self.rerun_samples is None:
            # one finished session of each kind (batch, interactive) is
            # re-run on a bare context after the run
            self.rerun_samples = {}
            for s, (name, iters), seed in zip(op.state, self.mix,
                                              self.session_seeds):
                kind = "batch" if name == "batch" else "interactive"
                if s.state == "done":
                    self.rerun_samples.setdefault(kind, (iters, seed, s.result))
        op.state = None
        return fails

    def final_checks(self) -> list[str]:
        from repro.core.context import Context

        fails = []
        for kind, (iters, seed, served) in sorted(
                (self.rerun_samples or {}).items()):
            ctx = Context()
            with ctx:
                gen = self._workload(seed, iters)(ctx)
                try:
                    while True:
                        next(gen)
                except StopIteration as stop:
                    bare = stop.value
            if not (np.array_equal(bare["x"], served["x"])
                    and bare["residual"] == served["residual"]):
                fails.append(f"served {kind} session differs bitwise from "
                             "a bare-context run")
        return fails


WORKLOADS = {w.name: w for w in (HMCWarm, SolveCold, ServeMix)}
