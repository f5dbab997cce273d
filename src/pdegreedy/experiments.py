"""Sweep and baseline protocols, k-means summaries, result persistence."""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .features import PRESETS, PdeSpec, Preset, relative_error
from .sampling import QdeimConfig, qdeim_sample, random_sample, sample_size_grid
from .siren import (DEFAULT_OMEGA0, DEFAULT_WIDTHS, check_network, init_siren,
                    jets_on_calling_thread)
from .snapshots import SnapshotMatrix
from .training import TrainConfig, train

# A view of PRESETS under the name benchmarks/bench_workloads.py imports.
DEFAULT_EPS_RANGES = {name: p.eps_range for name, p in PRESETS.items()}


def eps_grid(eps_min: float, eps_max: float, count: int = 20) -> tuple[float, ...]:
    """Logarithmically equispaced thresholds, endpoints included."""
    if not 0 < eps_min < eps_max:
        raise ValueError(f"need 0 < eps_min < eps_max, got ({eps_min}, {eps_max})")
    return tuple(np.logspace(np.log10(eps_min), np.log10(eps_max), count))


@dataclass(frozen=True)
class SweepConfig:
    t_divs: tuple[int, ...] = (1, 2, 3, 4)
    eps_values: tuple[float, ...] = eps_grid(*Preset().eps_range)
    repetitions: int = 5
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self):
        if not self.t_divs or not self.eps_values:
            raise ValueError("t_divs and eps_values must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class ExperimentRecord:
    sampler: str                       # greedy | random
    pde: str
    n_samples: int
    rel_errors: tuple[float, ...]      # NaN where truth is zero or run failed
    final_p: tuple[float, ...]
    wall_time_s: float
    t_div: int | None = None
    eps_thr: float | None = None
    size: int | None = None
    seed: int | None = None
    error: str | None = None


def _record(sampler: str, draw, s: SnapshotMatrix, spec: PdeSpec,
            train_cfg: TrainConfig, widths, omega0, **keys) -> ExperimentRecord:
    """One run: select samples with ``draw()``, train a fresh net on them
    and record the outcome under the sampler settings ``keys``. A failure
    becomes the record's error, so the sweep goes on."""
    nan = tuple(np.full(len(spec.terms), np.nan))
    try:
        samples = draw()
    except Exception as exc:
        return ExperimentRecord(sampler=sampler, pde=spec.name, n_samples=0,
                                rel_errors=nan, final_p=nan, wall_time_s=0.0,
                                error=f"{type(exc).__name__}: {exc}", **keys)
    started = time.perf_counter()
    net = init_siren(widths, omega0=omega0, seed=train_cfg.seed)
    try:
        result = train(net, samples, spec, s.scales, train_cfg)
    except Exception as exc:
        errs = final_p = nan
        detail = f"{type(exc).__name__}: {exc}"
    else:
        errs = (relative_error(spec.true_p, result.final_p)
                if spec.true_p is not None else nan)
        final_p, detail = result.final_p, "diverged" if result.diverged else None
    return ExperimentRecord(
        sampler=sampler, pde=spec.name, n_samples=len(samples),
        rel_errors=tuple(float(e) for e in errs),
        final_p=tuple(float(v) for v in final_p),
        wall_time_s=time.perf_counter() - started, error=detail, **keys)


# A task is a tuple of plain data so that it pickles; the sampler call is
# built in the worker.

def _greedy_task(args):
    s, spec, t_div, eps, train_cfg, widths, omega0 = args
    return _record("greedy", lambda: qdeim_sample(s, QdeimConfig(t_div=t_div, eps_thr=eps)),
                   s, spec, train_cfg, widths, omega0, t_div=t_div, eps_thr=eps)


def _random_task(args):
    s, spec, size, seed, train_cfg, widths, omega0 = args
    return _record("random", lambda: random_sample(s, size, seed),
                   s, spec, train_cfg, widths, omega0, size=size, seed=seed)


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    # one compute thread per worker: jobs workers use jobs cores
    with ProcessPoolExecutor(max_workers=jobs, initializer=jets_on_calling_thread) as pool:
        return list(pool.map(fn, tasks))


def sweep_greedy(s: SnapshotMatrix, spec: PdeSpec, sweep_cfg: SweepConfig,
                 train_cfg: TrainConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """One record per (t_div, eps) pair; 4 x 20 = 80 with the defaults."""
    check_network(sweep_cfg.widths, sweep_cfg.omega0)  # refuse before any task runs
    tasks = [(s, spec, t_div, eps, train_cfg, sweep_cfg.widths, sweep_cfg.omega0)
             for t_div in sweep_cfg.t_divs for eps in sweep_cfg.eps_values]
    return _map_tasks(_greedy_task, tasks, jobs)


def sweep_random(s: SnapshotMatrix, spec: PdeSpec, min_n: int, max_n: int,
                 train_cfg: TrainConfig, repetitions: int = 5, base_seed: int = 0,
                 jobs: int = 1, widths=DEFAULT_WIDTHS,
                 omega0: float = DEFAULT_OMEGA0) -> list[ExperimentRecord]:
    """Size-matched random baseline: 11 sizes x repetitions (55 by default).

    Seeds are not chosen by the caller per run but derived from base_seed
    and recorded, so the whole baseline replays exactly.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    check_network(widths, omega0)
    sizes = sample_size_grid(min_n, max_n)
    tasks = []
    run = 0
    for size in sizes:
        for _ in range(repetitions):
            tasks.append((s, spec, size, base_seed + run, train_cfg, widths, omega0))
            run += 1
    return _map_tasks(_random_task, tasks, jobs)


# ---------------------------------------------------------------------------
# k-means summaries

@dataclass(frozen=True)
class ClusterSummary:
    centroids: np.ndarray  # (k, 2): (n_samples, rel_error)
    inertia: float
    k: int
    n_init: int


def lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int = 300):
    """Lloyd iterations from the given centroids until assignments settle.

    Returns (centroids, labels, inertia_history); the history is recorded
    once per assignment step and never increases. An emptied cluster is
    reseeded at the point farthest from its assigned centroid.
    """
    points = np.asarray(points, dtype=float)
    centroids = np.array(centroids, dtype=float)
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centroids.shape[0]):
            members = points[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
            else:
                worst = np.argmax(d2[np.arange(points.shape[0]), labels])
                centroids[c] = points[worst]
    return centroids, labels, history


def kmeans(points, k: int, n_init: int = 100, seed: int = 0) -> ClusterSummary:
    """Best of n_init Lloyd runs, each started from k distinct random points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k = {k} out of range [1, {points.shape[0]}]")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        start = points[rng.choice(points.shape[0], k, replace=False)]
        centroids, _, history = lloyd(points, start)
        if best is None or history[-1] < best[1]:
            best = (centroids, history[-1])
    return ClusterSummary(centroids=best[0], inertia=best[1], k=k, n_init=n_init)


def cluster_records(records: list[ExperimentRecord], coef_index: int, k: int = 20,
                    n_init: int = 100, seed: int = 0) -> ClusterSummary:
    """Cluster the (sample count, relative error) pairs of one coefficient."""
    if not records:
        raise ValueError("no records to cluster")
    n_coefs = len(records[0].rel_errors)
    if not 0 <= coef_index < n_coefs:
        raise ValueError(f"coefficient index {coef_index} outside 0..{n_coefs - 1}")
    rows = [(rec.n_samples, rec.rel_errors[coef_index]) for rec in records
            if rec.error is None and np.isfinite(rec.rel_errors[coef_index])]
    if not rows:
        raise ValueError(f"no usable records for coefficient {coef_index}")
    return kmeans(np.array(rows, dtype=float), k=k, n_init=n_init, seed=seed)


# ---------------------------------------------------------------------------
# persistence

CSV_FIELDS = ["sampler", "pde", "t_div", "eps_thr", "size", "seed",
              "n_samples", "coef_index", "rel_error", "wall_time_s"]


def export_results(records: list[ExperimentRecord], path, format: str = "csv") -> None:
    """CSV: one row per (record, coefficient). JSON: lossless record dump."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            for rec in records:
                for ci, err in enumerate(rec.rel_errors):
                    writer.writerow({
                        "sampler": rec.sampler, "pde": rec.pde,
                        "t_div": "" if rec.t_div is None else rec.t_div,
                        "eps_thr": "" if rec.eps_thr is None else "%.17g" % rec.eps_thr,
                        "size": "" if rec.size is None else rec.size,
                        "seed": "" if rec.seed is None else rec.seed,
                        "n_samples": rec.n_samples,
                        "coef_index": ci,
                        "rel_error": "%.17g" % err,
                        "wall_time_s": "%.6f" % rec.wall_time_s,
                    })
    elif format == "json":
        payload = [dataclasses.asdict(rec) for rec in records]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown results format {format!r}")


def read_results(path) -> list[ExperimentRecord]:
    """Load a JSON export back into records."""
    with open(path) as fh:
        payload = json.load(fh)
    out = []
    for raw in payload:
        raw["rel_errors"] = tuple(float(v) for v in raw["rel_errors"])
        raw["final_p"] = tuple(float(v) for v in raw["final_p"])
        out.append(ExperimentRecord(**raw))
    return out


def export_plot_data(records: list[ExperimentRecord], path) -> None:
    """Sample-count vs error series per t_div, as JSON."""
    series: dict = {}
    for rec in records:
        key = f"t_div={rec.t_div}" if rec.t_div is not None else "random"
        entry = series.setdefault(key, {"n_samples": [], "rel_errors": []})
        entry["n_samples"].append(rec.n_samples)
        entry["rel_errors"].append(list(rec.rel_errors))
    with open(path, "w") as fh:
        json.dump({"series": series}, fh, indent=1, sort_keys=True)
        fh.write("\n")
