"""The benchmark's workloads, their correctness checks and their metrics.

Each workload has a set-up (snapshot generation, sample selection and
network init) and a unit of measured work. An untraced run sets up
``SETUP_REPEATS`` times and repeats the unit until the time budget is
spent; a traced run sets up once and runs the unit once untraced and
once traced, so the two can be compared.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from pdegreedy import experiments, features, sampling, siren, snapshots, training
from pdegreedy.cli import GENERATE_DEFAULTS
from pdegreedy.experiments import DEFAULT_EPS_RANGES, DEFAULT_OMEGA0, DEFAULT_WIDTHS, eps_grid
from pdegreedy.features import get_pde_spec, relative_error
from pdegreedy.sampling import QdeimConfig
from pdegreedy.training import TrainConfig

from bench_trace import Tracer, iteration_clock


@dataclass(frozen=True)
class Profile:
    """Problem sizes and the expected outputs at those sizes."""

    kdv_shape: tuple[int, int] = (512, 201)
    burgers_shape: tuple[int, int] = (256, 101)
    eps_count: int = 20
    t_divs: tuple[int, ...] = (1, 2, 3, 4)
    op_point: tuple[int, float] = (2, 1e-3)            # KdV acceptance operating point
    op_iters: int = 100                                # per unit of the registered kdv-op
    op_full_iters: int = 1000                          # the criterion-2 run, kdv-op-full
    op_bounds: tuple[float, float] = (0.05, 0.10)      # criterion 2: u*u_x, u_xxx
    large_point: tuple[int, float] = (3, eps_grid(*DEFAULT_EPS_RANGES["kdv"])[12])
    large_iters: int = 4
    protocol_iters: int = 1
    repetitions: int = 5
    protocol_records: int = 135                        # 80 greedy + 55 random
    k: int = 20
    n_init: int = 100
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    # outputs of the unmodified sampler at these sizes
    op_samples: int = 242
    large_samples: int = 10562
    grid_total: int = 1104415
    grid_digest: str = "7145841acd8043022af25ef560c2357349d9950f4e10b0d8737ae29af3fbf4aa"


FULL = Profile()

# Set-up runs this often per untraced run and setup_s is the median; the
# snapshot generation that dominates it is single-threaded, and its time
# drifts by +-15 % within one process on a shared 2-core box.
SETUP_REPEATS = 3


@dataclass
class Checks:
    """Correctness checks of one run; every failure counts against attempts."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def check(self, label: str, ok) -> None:
        self.attempted += 1
        if not bool(ok):
            self.failed.append(label)


@dataclass
class Unit:
    """One repetition of a workload's measured work."""

    wall: float                 # seconds of measured work
    sample_iters: float         # samples x iterations (selected points for the sampler)
    steps_ms: list[float]       # per-step times: training iterations or sampler configs
    extra: dict = field(default_factory=dict)


def _snapshot(pde: str, shape):
    grid = GENERATE_DEFAULTS[pde]
    return snapshots.generate_synthetic(get_pde_spec(pde), *shape, grid["domain"],
                                        init=grid["init"])


def _eps_values(pde: str, profile: Profile):
    return eps_grid(*DEFAULT_EPS_RANGES[pde], profile.eps_count)


def _clock_steps(stamps) -> list[float]:
    return [1e3 * (b - a) for a, b in zip(stamps[:-1], stamps[1:])]


# ---------------------------------------------------------------------------
# workloads

class TrainWorkload:
    """One serial ``train()`` on a greedy KdV sample set.

    ``point(profile)`` gives ``((t_div, eps), iterations, expected sample
    count)``. ``acceptance`` selects the operating-point checks
    (coefficient errors within the criterion-2 bounds); otherwise the run
    is a fixed number of iterations checked for finite losses and jet
    consistency.
    """

    def __init__(self, point, acceptance: bool = False):
        self._point = point
        self.acceptance = acceptance

    def setup(self, profile, seed, tracer):
        with tracer.span("snapshots.generate_synthetic"):
            snap = _snapshot("kdv", profile.kdv_shape)
        (t_div, eps), _, _ = self._point(profile)
        with tracer.span("sampling.qdeim_sample"):
            samples = sampling.qdeim_sample(snap, QdeimConfig(t_div=t_div, eps_thr=eps))
        with tracer.span("siren.init_siren"):
            net = siren.init_siren(profile.widths, omega0=DEFAULT_OMEGA0, seed=seed)
        return snap, samples, net

    def check_setup(self, inputs, profile, checks):
        checks.check("sample count", len(inputs[1]) == self._point(profile)[2])

    def unit(self, inputs, profile, seed, checks, tracer):
        snap, samples, net0 = inputs
        net = net0.copy()
        spec = get_pde_spec("kdv")
        iters = self._point(profile)[1]
        with iteration_clock(training) as stamps:
            started = perf_counter()
            with tracer.span("training.train"):
                result = training.train(net, samples, spec, snap.scales,
                                        TrainConfig(max_iter=iters, seed=seed))
            wall = perf_counter() - started
        checks.check("ran every iteration", not result.diverged and result.iterations == iters)
        extra = {}
        if self.acceptance:
            errors = relative_error(spec.true_p, result.final_p)
            checks.check("u*u_x coefficient error", errors[0] < profile.op_bounds[0])
            checks.check("u_xxx coefficient error", errors[1] < profile.op_bounds[1])
            extra["rel_err_max"] = float(np.max(errors))
        else:
            checks.check("every loss finite", np.all(np.isfinite(result.loss_history)))
            t, x = samples.t_norm, samples.x_norm
            jet = siren.forward_jet(net, t, x, max_x_order=spec.max_x_order)
            checks.check("jet value equals forward",
                         np.allclose(jet.u, siren.forward(net, t, x), rtol=1e-10, atol=1e-12))
        return Unit(wall=wall, sample_iters=float(len(samples) * result.iterations),
                    steps_ms=_clock_steps(stamps), extra=extra)


class SamplingWorkload:
    """``qdeim_sample`` over the whole (t_div, eps) KdV grid, no training."""

    def setup(self, profile, seed, tracer):
        with tracer.span("snapshots.generate_synthetic"):
            return _snapshot("kdv", profile.kdv_shape)

    def check_setup(self, inputs, profile, checks):
        pass

    def unit(self, snap, profile, seed, checks, tracer):
        digest = hashlib.sha256()
        total, steps = 0, []
        for t_div in profile.t_divs:
            for i, eps in enumerate(_eps_values("kdv", profile)):
                started = perf_counter()
                with tracer.span("sampling.qdeim_sample"):
                    ss = sampling.qdeim_sample(snap, QdeimConfig(t_div=t_div, eps_thr=eps))
                steps.append(1e3 * (perf_counter() - started))
                checks.check(f"pairing identity t_div={t_div} eps#{i}",
                             len(ss) == sum(len(p) ** 2 for p in ss.spatial_pivots))
                for idx in (ss.x_idx, ss.t_idx):
                    digest.update(np.asarray(idx, dtype="<i8").tobytes())
                total += len(ss)
        checks.check(f"grid total {total}", total == profile.grid_total)
        checks.check(f"sample-index digest {digest.hexdigest()}",
                     digest.hexdigest() == profile.grid_digest)
        # Config times span two orders of magnitude, so their median jumps
        # between clusters; the step time is the mean over the fixed grid.
        wall = 1e-3 * sum(steps)
        return Unit(wall=wall, sample_iters=float(total), steps_ms=[1e3 * wall / len(steps)])


class ProtocolWorkload:
    """Burgers paper protocol: greedy sweep, size-matched random baseline,
    k-means per coefficient, with a reduced per-run iteration budget.

    The measured pass is serial (``jobs=1``). At ``jobs`` = core count the
    pool's wall time spread by more than the largest bound a metric may
    have, so that pass runs only in the traced run, where it gives the
    parallel efficiency and the per-task times.
    """

    def setup(self, profile, seed, tracer):
        with tracer.span("snapshots.generate_synthetic"):
            return _snapshot("burgers", profile.burgers_shape)

    def check_setup(self, inputs, profile, checks):
        pass

    def unit(self, snap, profile, seed, checks, tracer, jobs=1):
        spec = get_pde_spec("burgers")
        sweep = experiments.SweepConfig(t_divs=profile.t_divs,
                                        eps_values=_eps_values("burgers", profile),
                                        repetitions=profile.repetitions)
        cfg = TrainConfig(max_iter=profile.protocol_iters, seed=seed)
        started = perf_counter()
        with tracer.span("experiments.sweep_greedy"):
            greedy = experiments.sweep_greedy(snap, spec, sweep, cfg, jobs=jobs)
        counts = [r.n_samples for r in greedy]
        with tracer.span("experiments.sweep_random"):
            random = experiments.sweep_random(snap, spec, min(counts), max(counts), cfg,
                                              repetitions=profile.repetitions,
                                              base_seed=seed, jobs=jobs)
        summaries = []
        for ci in range(len(spec.terms)):
            with tracer.span("experiments.cluster_records"):
                summaries.append(experiments.cluster_records(
                    greedy, ci, k=profile.k, n_init=profile.n_init, seed=seed))
        wall = perf_counter() - started
        records = greedy + random
        checks.check("record count", len(records) == profile.protocol_records)
        for r in records:
            checks.check(f"{r.sampler} run without error", r.error is None)
        for ci, s in enumerate(summaries):
            checks.check(f"finite centroids, coefficient {ci}", np.all(np.isfinite(s.centroids)))
        iters = profile.protocol_iters
        return Unit(wall=wall, sample_iters=float(sum(r.n_samples for r in records) * iters),
                    steps_ms=[1e3 * r.wall_time_s / iters for r in records],
                    extra={"jobs": jobs, "task_s": [r.wall_time_s for r in records]})


WORKLOADS = {
    "kdv-op": TrainWorkload(lambda p: (p.op_point, p.op_iters, p.op_samples)),
    "kdv-op-full": TrainWorkload(lambda p: (p.op_point, p.op_full_iters, p.op_samples),
                                 acceptance=True),
    "kdv-large": TrainWorkload(lambda p: (p.large_point, p.large_iters, p.large_samples)),
    "sampling-kdv": SamplingWorkload(),
    "protocol-burgers": ProtocolWorkload(),
}


# ---------------------------------------------------------------------------
# probes: names as bound in the calling module

def _n_points(arg) -> int:
    return int(np.atleast_1d(np.asarray(arg)).shape[0])


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _gemm_flop(widths, n: int, order: int) -> float:
    """Computed multiply-add flops of one jet forward pass: every layer runs
    one (n x fan_in) @ (fan_in x fan_out) product per Taylor stream, and
    there are order + 1 x-streams plus the t tangent."""
    streams = order + 2
    return float(sum(2 * n * a * b * streams for a, b in zip(widths[:-1], widths[1:])))


def _ann_forward(args, kwargs, result):
    net, t = args[0], args[1]
    order = kwargs.get("max_x_order", args[3] if len(args) > 3 else 3)
    n = _n_points(t)
    return {"n": n, "cache_bytes": _nbytes(result[1]),
            "flop": _gemm_flop(net.widths, n, order)}


def _ann_backward(args, kwargs, result):
    net, bar = args[0], args[2]
    n = _n_points(bar.u)
    # per layer: one weight-gradient and one input-cotangent product per stream
    return {"n": n, "flop": 2.0 * _gemm_flop(net.widths, n, bar.max_x_order)}


def _ann_ivp(args, kwargs, result):
    return {"nfev": int(result.nfev)}


PROBES = [
    (training, "forward_jet_with_cache", "siren", _ann_forward),
    (training, "jet_backward", "siren", _ann_backward),
    (training, "build_theta", "features", None),
    (training, "physical_u_t", "features", None),
    (training, "solve_parameters", "features", None),
    (training, "composite_loss_and_bar", "features", None),
    (training, "total_loss", "features", None),
    (training, "adam_step", "training", None),
    (training, "cyclic_lr", "training", None),
    (features, "qr_least_squares", "linalg", None),
    (sampling, "qdeim_window", "sampling", None),
    (sampling, "SampleSet", "sampling", None),
    (sampling, "svd", "linalg", None),
    (sampling, "pivoted_qr", "linalg", None),
    (snapshots, "solve_ivp", "snapshots", _ann_ivp),
    (experiments, "qdeim_sample", "sampling", None),
    (experiments, "random_sample", "sampling", None),
    (experiments, "init_siren", "siren", None),
    (experiments, "train", "training", None),
    (experiments, "relative_error", "features", None),
    (experiments, "kmeans", "experiments", None),
]


# ---------------------------------------------------------------------------
# running and summarising

def _repeat(run_unit, seconds: float) -> list[Unit]:
    """Run units until the next one would overrun the budget (at least one)."""
    units: list[Unit] = []
    started = perf_counter()
    while True:
        units.append(run_unit())
        median = statistics.median(u.wall for u in units)
        if perf_counter() - started + median > seconds:
            return units


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; a pool's workers count through CHILDREN
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


@dataclass
class RunResult:
    metrics: dict        # name -> (value, unit), the registered metrics of this mode
    notes: dict          # name -> (value, unit, note), reported but not registered
    checks: Checks
    tracer: Tracer


def run_untraced(name: str, seed: int, seconds: float, profile: Profile) -> RunResult:
    wl, checks, tracer = WORKLOADS[name], Checks(), Tracer()
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        inputs = wl.setup(profile, seed, tracer)
        setup_walls.append(perf_counter() - started)
    wl.check_setup(inputs, profile, checks)
    units = _repeat(lambda: wl.unit(inputs, profile, seed, checks, tracer), seconds)
    walls = [u.wall for u in units]
    steps = [s for u in units for s in u.steps_ms]
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sample_iters_per_s": (statistics.median(u.sample_iters / u.wall for u in units), "1/s"),
        "iter_ms_p50": (_percentile(steps, 50), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    beyond = int(len(steps) * 0.1)
    notes = {
        "iter_ms_p90": ((_percentile(steps, 90), "ms", f"{len(steps)} steps")
                        if beyond >= 10 else
                        (None, "ms", f"not reported: {len(steps)} steps, fewer than 10 beyond p90")),
        "failed_frac": (len(checks.failed) / max(checks.attempted, 1), "frac",
                        f"{len(checks.failed)} of {checks.attempted} checks"),
        "units": (len(units), "count", "repetitions of the measured work"),
        "us_per_sample_iter": (1e6 / metrics["sample_iters_per_s"][0], "us",
                               "1e6 / sample_iters_per_s"),
    }
    rel = [u.extra["rel_err_max"] for u in units if "rel_err_max" in u.extra]
    if rel:
        notes["rel_err_max"] = (max(rel), "1", "largest relative coefficient error")
    return RunResult(metrics, notes, checks, tracer)


def run_traced(name: str, seed: int, seconds: float, profile: Profile) -> RunResult:
    """One traced set-up, then the unit once untraced and once traced; the
    time budget does not apply.

    ``protocol-burgers`` also runs an untraced pass at ``jobs`` = core
    count. Its traced pass is serial, so every span is in-process, and its
    untraced serial pass is the single-threaded baseline.
    """
    wl, checks, tracer = WORKLOADS[name], Checks(), Tracer()
    with tracer.installed(PROBES):
        inputs = wl.setup(profile, seed, tracer)
    wl.check_setup(inputs, profile, checks)
    parallel = None
    if isinstance(wl, ProtocolWorkload):
        parallel = wl.unit(inputs, profile, seed, checks, tracer, jobs=os.cpu_count() or 1)
        plain = wl.unit(inputs, profile, seed, checks, tracer)
        with tracer.installed(PROBES):
            traced = wl.unit(inputs, profile, seed, checks, tracer)
    else:
        plain = wl.unit(inputs, profile, seed, checks, tracer)
        with tracer.installed(PROBES):
            traced = wl.unit(inputs, profile, seed, checks, tracer)
    metrics = layer_metrics(tracer, plain, traced, parallel)
    notes = {
        "failed_frac": (len(checks.failed) / max(checks.attempted, 1), "frac",
                        f"{len(checks.failed)} of {checks.attempted} checks"),
        "untraced_wall_s": (plain.wall, "s", "same unit without tracing"),
        "traced_wall_s": (traced.wall, "s", "unit with tracing"),
        "spans": (len(tracer.spans), "count", "spans recorded"),
    }
    train_spans = tracer.named("training.train")
    if train_spans:
        iters = len(tracer.named("siren.forward_jet_with_cache"))
        children = tracer.child_time()
        index = [i for i, s in enumerate(tracer.spans) if s.name == "training.train"]
        notes["train_ms_per_iter"] = (1e3 * sum(s.duration for s in train_spans) / iters, "ms",
                                      "train span")
        notes["train_children_ms_per_iter"] = (1e3 * sum(children[i] for i in index) / iters,
                                               "ms", "its direct child spans")
    if parallel is not None:
        notes["parallel_wall_s"] = (parallel.wall, "s", f"untraced, jobs={parallel.extra['jobs']}")
    return RunResult(metrics, notes, checks, tracer)


def layer_metrics(tracer: Tracer, plain: Unit, traced: Unit, parallel: Unit | None) -> dict:
    """Per-layer metrics; a layer the workload does not reach reports 0."""
    def durations(name):
        return [s.duration for s in tracer.named(name)]

    def median_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def mean_ms(name):
        d = durations(name)
        return 1e3 * math.fsum(d) / len(d) if d else 0.0

    def per_sample_us(name):
        spans = tracer.named(name)
        n = sum(s.attrs["n"] for s in spans)
        return 1e6 * sum(s.duration for s in spans) / n if n else 0.0

    fwd, bwd = tracer.named("siren.forward_jet_with_cache"), tracer.named("siren.jet_backward")
    iters = len(fwd)
    flop = sum(s.attrs["flop"] for s in fwd + bwd)
    return {
        "siren.jet_forward_us_per_sample": (per_sample_us("siren.forward_jet_with_cache"), "us"),
        "siren.jet_backward_us_per_sample": (per_sample_us("siren.jet_backward"), "us"),
        "siren.jet_forward_ms": (median_ms("siren.forward_jet_with_cache"), "ms"),
        "siren.jet_backward_ms": (median_ms("siren.jet_backward"), "ms"),
        "siren.cache_mb": (max((s.attrs["cache_bytes"] for s in fwd), default=0) / 2 ** 20, "MB"),
        "siren.gemm_gflop": (flop / iters / 1e9 if iters else 0.0, "GFLOP"),
        "features.theta_ms": (median_ms("features.build_theta"), "ms"),
        "features.loss_bar_ms": (median_ms("features.composite_loss_and_bar"), "ms"),
        "linalg.qr_lstsq_ms": (median_ms("linalg.qr_least_squares"), "ms"),
        "training.adam_ms": (median_ms("training.adam_step"), "ms"),
        "training.self_ms_per_iter": (1e3 * tracer.self_time("training.train") / iters
                                      if iters else 0.0, "ms"),
        "linalg.svd_ms": (1e3 * math.fsum(durations("linalg.svd")), "ms"),
        "linalg.svd_calls": (len(durations("linalg.svd")), "count"),
        "linalg.pivoted_qr_ms": (1e3 * math.fsum(durations("linalg.pivoted_qr")), "ms"),
        "linalg.pivoted_qr_calls": (len(durations("linalg.pivoted_qr")), "count"),
        # sampler calls on one grid differ by two orders of magnitude: mean, not median
        "sampling.select_ms": (mean_ms("sampling.qdeim_sample"), "ms"),
        "sampling.self_s": (tracer.layer_self_time("sampling"), "s"),
        "snapshots.generate_s": (math.fsum(durations("snapshots.generate_synthetic")), "s"),
        "snapshots.ivp_nfev": (sum(s.attrs["nfev"] for s in tracer.named("snapshots.solve_ivp")),
                               "count"),
        "experiments.task_s_p50": (statistics.median(parallel.extra["task_s"])
                                   if parallel else 0.0, "s"),
        "experiments.kmeans_s": (math.fsum(durations("experiments.cluster_records")), "s"),
        "experiments.parallel_efficiency": (plain.wall / (parallel.extra["jobs"] * parallel.wall)
                                            if parallel else 0.0, "frac"),
        "trace.overhead_frac": (traced.wall / plain.wall - 1.0, "frac"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, profile: Profile = FULL) -> RunResult:
    return (run_traced if trace else run_untraced)(name, seed, seconds, profile)
