"""Sweep and baseline protocols, k-means summaries, result persistence."""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import PRESETS, PdeSpec, Preset, relative_error
# qdeim_sample is bound here for the probes of benchmarks/bench_workloads.py; sweeps use qdeim_grid.
from .sampling import SampleSet, qdeim_grid, qdeim_sample, random_sample, sample_size_grid
# DEFAULT_OMEGA0 and DEFAULT_WIDTHS are imported from here by benchmarks/bench_workloads.py.
from .siren import DEFAULT_OMEGA0, DEFAULT_WIDTHS, init_siren, jets_on_calling_thread
from .snapshots import SnapshotMatrix
from .training import TrainConfig, TrainResult, train

# A view of PRESETS under the name benchmarks/bench_workloads.py imports.
DEFAULT_EPS_RANGES = {name: p.eps_range for name, p in PRESETS.items()}


def eps_grid(eps_min: float, eps_max: float, count: int = 20) -> tuple[float, ...]:
    """Logarithmically equispaced thresholds, endpoints included."""
    if not 0 < eps_min < eps_max:
        raise ValueError(f"need 0 < eps_min < eps_max, got ({eps_min}, {eps_max})")
    if count < 2:
        raise ValueError(f"need count >= 2 to include both endpoints, got {count}")
    return tuple(np.logspace(np.log10(eps_min), np.log10(eps_max), count))


@dataclass(frozen=True)
class SweepConfig:
    t_divs: tuple[int, ...] = (1, 2, 3, 4)
    eps_values: tuple[float, ...] = eps_grid(*Preset().eps_range)
    # only benchmarks/bench_workloads.py passes this; sweep_random takes its own
    repetitions: int = 5

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
    rel_errors: tuple[float, ...]      # NaN where truth is zero or no iteration completed
    final_p: tuple[float, ...]         # the last completed iteration's
    wall_time_s: float
    t_div: int | None = None
    eps_thr: float | None = None
    size: int | None = None
    seed: int | None = None
    error: str | None = None           # None exactly when outcome is ok
    same_as: float | None = None       # a repeated greedy set: its first eps_thr
    iterations: int | None = None      # completed iterations; None in older files
    outcome: str | None = None         # TrainResult.outcome; None in older files


def run_record(sampler: str, keys: dict, samples: SampleSet, spec: PdeSpec,
               run: TrainResult | Exception) -> ExperimentRecord:
    """The record of one training run on ``samples``, drawn under the
    sampler settings ``keys``. ``run`` is what ``train`` returned, or the
    exception it raised: that is recorded as a run of outcome ``error``
    that completed no iteration, in 0.0 s."""
    if isinstance(run, Exception):
        run = TrainResult(np.empty((0, len(spec.terms))), np.empty((0, 3)), np.empty(0), 0.0,
                          outcome="error", error=f"{type(run).__name__}: {run}")
    errs = (relative_error(spec.true_p, run.final_p) if spec.true_p is not None
            else np.full(len(spec.terms), np.nan))
    return ExperimentRecord(
        sampler=sampler, pde=spec.name, n_samples=len(samples),
        rel_errors=tuple(float(e) for e in errs), final_p=tuple(float(v) for v in run.final_p),
        wall_time_s=run.wall_time, error=run.error, iterations=run.iterations,
        outcome=run.outcome, **keys)


def _record(task) -> ExperimentRecord:
    """One run: train a fresh net on the drawn samples. A run that raised
    is recorded too; the sweep goes on."""
    sampler, samples, keys, spec, scales, train_cfg = task
    net = init_siren(train_cfg.widths, omega0=train_cfg.omega0, seed=train_cfg.seed)
    try:
        run = train(net, samples, spec, scales, train_cfg)
    except Exception as exc:
        run = exc
    return run_record(sampler, keys, samples, spec, run)


def _map_tasks(fn, tasks, jobs: int):
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(t) for t in tasks]
    # one compute thread per worker: jobs workers use jobs cores
    with ProcessPoolExecutor(max_workers=jobs, initializer=jets_on_calling_thread) as pool:
        return list(pool.map(fn, tasks))


def _run_sweep(sampler: str, grid, sets, spec: PdeSpec, scales,
               train_cfg: TrainConfig, jobs: int) -> list[ExperimentRecord]:
    """One record per keys in ``grid``, in grid order, for the sample set at
    the same place in ``sets``.

    Every set is drawn before the first run, in this process, so no SVD
    overlaps a run or runs in a worker. Each distinct set object is trained
    once, the largest first, so no long run starts last. A repeat (a greedy
    set ``qdeim_grid`` shares between thresholds) takes its source's record
    under its own keys, with ``wall_time_s`` 0.0 and ``same_as`` the source's
    ``eps_thr``."""
    first = {}    # id of each distinct set -> (the set, the keys it is first drawn at)
    for keys, samples in zip(grid, sets):
        first.setdefault(id(samples), (samples, keys))
    runs = sorted(first.values(), key=lambda run: -len(run[0]))
    trained = _map_tasks(_record, [(sampler, samples, keys, spec, scales, train_cfg)
                                   for samples, keys in runs], jobs)
    by_set = {id(samples): record for (samples, _), record in zip(runs, trained)}
    records = []
    for keys, samples in zip(grid, sets):
        record = by_set[id(samples)]
        if first[id(samples)][1] is not keys:
            record = dataclasses.replace(record, **keys, wall_time_s=0.0,
                                         same_as=record.eps_thr)
        records.append(record)
    return records


def sweep_greedy(s: SnapshotMatrix, spec: PdeSpec, sweep_cfg: SweepConfig,
                 train_cfg: TrainConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """One record per (t_div, eps) pair; 4 x 20 = 80 with the defaults. Each
    distinct sample set is trained once (see ``_run_sweep``). A bad t_div or
    eps raises ValueError before any SVD."""
    grid = [{"t_div": t_div, "eps_thr": eps}
            for t_div in sweep_cfg.t_divs for eps in sweep_cfg.eps_values]
    sets = qdeim_grid(s, sweep_cfg.t_divs, sweep_cfg.eps_values)
    return _run_sweep("greedy", grid, sets, spec, s.scales, train_cfg, jobs)


def sweep_random(s: SnapshotMatrix, spec: PdeSpec, min_n: int, max_n: int,
                 train_cfg: TrainConfig, repetitions: int = 5, base_seed: int = 0,
                 jobs: int = 1) -> list[ExperimentRecord]:
    """Size-matched random baseline: 11 sizes x repetitions (55 by default).

    Seeds are not chosen by the caller per run but derived from base_seed
    and recorded, so the whole baseline replays exactly. A size outside
    [1, n*m] raises ValueError before any run.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    sizes = [size for size in sample_size_grid(min_n, max_n) for _ in range(repetitions)]
    grid = [{"size": size, "seed": base_seed + run} for run, size in enumerate(sizes)]
    return _run_sweep("random", grid, [random_sample(s, **keys) for keys in grid],
                      spec, s.scales, train_cfg, jobs)


# ---------------------------------------------------------------------------
# k-means summaries

@dataclass(frozen=True)
class ClusterSummary:
    centroids: np.ndarray  # (k, 2): (n_samples, rel_error)
    inertia: float
    n_init: int

    @property
    def k(self) -> int:
        return len(self.centroids)


def lloyd(points: np.ndarray, centroids: np.ndarray):
    """Lloyd iterations from the given centroids until assignments settle.

    Returns (centroids, labels, inertia_history); the history is recorded
    once per assignment step and never increases. An emptied cluster is
    reseeded at the point farthest from its assigned centroid.

    A centroid is its members' coordinates summed in point order, over the
    member count: the bytes of ``members.mean(axis=0)`` for points of two or
    more dimensions. (For one-dimensional points numpy's mean sums pairwise,
    so the last bits may differ from it.)
    """
    points = np.asarray(points, dtype=float)
    centroids = np.array(centroids, dtype=float)
    labels = None
    history = []
    for _ in range(300):  # a cap; assignments settle long before
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(points.shape[0]), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        k = centroids.shape[0]
        counts = np.bincount(labels, minlength=k)
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k)
                                for col in points.T])
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            centroids[~filled] = points[np.argmax(d2[np.arange(points.shape[0]), labels])]
    return centroids, labels, history


def kmeans(points, k: int, n_init: int = 100, seed: int = 0) -> ClusterSummary:
    """Best of n_init Lloyd runs, each started from k distinct random points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    if not 1 <= k <= points.shape[0]:
        raise ValueError(f"k = {k} out of range [1, {points.shape[0]}]")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        start = points[rng.choice(points.shape[0], k, replace=False)]
        centroids, _, history = lloyd(points, start)
        if best is None or history[-1] < best[1]:
            best = (centroids, history[-1])
    return ClusterSummary(centroids=best[0], inertia=best[1], n_init=n_init)


def cluster_records(records: list[ExperimentRecord], coef_index: int, k: int = 20,
                    n_init: int = 100, seed: int = 0) -> ClusterSummary:
    """Cluster the (sample count, relative error) pairs of one coefficient
    over records of one PDE, which must all have the same coefficient count."""
    kinds = sorted({(rec.pde, len(rec.rel_errors)) for rec in records})
    if len(kinds) != 1:
        raise ValueError("need records of one PDE and coefficient count, got " + (", ".join(
            f"{pde} (coefficients: {n})" for pde, n in kinds) or "no records"))
    n_coefs = kinds[0][1]
    if not 0 <= coef_index < n_coefs:
        raise ValueError(f"coefficient index {coef_index} outside 0..{n_coefs - 1}")
    rows = [(rec.n_samples, rec.rel_errors[coef_index]) for rec in records
            if rec.error is None and np.isfinite(rec.rel_errors[coef_index])]
    if not rows:
        raise ValueError(f"no usable records for coefficient {coef_index}")
    return kmeans(np.array(rows, dtype=float), k=k, n_init=n_init, seed=seed)


# ---------------------------------------------------------------------------
# persistence

def record_json(rec: ExperimentRecord) -> dict:
    """``rec`` as a JSON object, with a non-finite coefficient or relative
    error written as ``null``: those two fields alone can hold a NaN."""
    raw = dataclasses.asdict(rec)
    for key in ("rel_errors", "final_p"):
        raw[key] = [v if np.isfinite(v) else None for v in raw[key]]
    return raw


def export_results(records: list[ExperimentRecord], out_dir) -> None:
    """Write ``records.csv`` and ``records.json`` into ``out_dir``. A CSV row per
    (record, coefficient) holds the record's fields, with that coefficient's
    ``rel_errors`` and ``final_p``, then ``coef_index``; None is "", a float %.17g."""
    with open(Path(out_dir) / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(ExperimentRecord)] + ["coef_index"])
        for rec in records:
            for ci, (err, p) in enumerate(zip(rec.rel_errors, rec.final_p)):
                row = dataclasses.astuple(dataclasses.replace(rec, rel_errors=err, final_p=p))
                writer.writerow(["" if v is None else "%.17g" % v if isinstance(v, float) else v
                                 for v in (*row, ci)])
    with open(Path(out_dir) / "records.json", "w") as fh:
        json.dump([record_json(rec) for rec in records], fh, indent=1, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _floats(values) -> tuple[float, ...]:
    return tuple(np.nan if v is None else float(v) for v in values)


def read_results(path) -> list[ExperimentRecord]:
    """Load a JSON export back into records, with NaN for a ``null`` (or, in an
    older file, ``NaN``) coefficient or error. A file that is not a list of
    records raises ValueError naming it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            if not isinstance(payload, list):
                raise TypeError(f"top level is a {type(payload).__name__}")
            return [ExperimentRecord(**{**raw, "rel_errors": _floats(raw["rel_errors"]),
                                        "final_p": _floats(raw["final_p"])})
                    for raw in payload]
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{path}: not a list of experiment records "
                             f"({type(exc).__name__}: {exc})") from None

