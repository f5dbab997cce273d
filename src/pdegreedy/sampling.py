"""Greedy two-way sample selection on snapshot matrices, plus random baseline."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .linalg import pivoted_qr, svd
from .snapshots import SnapshotMatrix, subdivide_time


@dataclass(frozen=True)
class QdeimConfig:
    """Greedy sampling knobs: time divisions and the rank threshold."""

    t_div: int = 1
    eps_thr: float = 1e-6

    def __post_init__(self):
        if self.t_div < 1:
            raise ValueError(f"t_div must be >= 1, got {self.t_div}")
        if not 0.0 < self.eps_thr < 1.0:
            raise ValueError(f"eps_thr must lie in (0, 1), got {self.eps_thr}")


@dataclass
class SampleSet:
    """Selected (t, x, u) triples; a greedy set also keeps its pivots.

    Coordinates are the normalized axes of the parent snapshot; the
    index arrays point back into the snapshot grid.
    """

    t_norm: np.ndarray
    x_norm: np.ndarray
    u: np.ndarray
    window_id: np.ndarray
    x_idx: np.ndarray
    t_idx: np.ndarray
    spatial_pivots: list[list[int]] = field(default_factory=list)
    temporal_pivots: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        lengths = {arr.shape[0] for arr in
                   (self.t_norm, self.x_norm, self.u, self.window_id,
                    self.x_idx, self.t_idx)}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent point array lengths: {lengths}")
        if len(self) == 0:
            return
        if min(self.t_idx.min(), self.x_idx.min()) < 0:
            raise ValueError("negative sample index")
        flat = self.t_idx * (self.x_idx.max() + 1) + self.x_idx
        if np.bincount(flat).max() > 1:
            raise ValueError("duplicate (t, x) samples")

    def __len__(self) -> int:
        return self.t_norm.shape[0]

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window", "t_index", "x_index", "t", "x", "u"])
            for i in range(len(self)):
                writer.writerow([int(self.window_id[i]), int(self.t_idx[i]),
                                 int(self.x_idx[i]), "%.17g" % self.t_norm[i],
                                 "%.17g" % self.x_norm[i], "%.17g" % self.u[i]])


def select_rank(sigma, eps_thr: float) -> int:
    """Smallest r whose retained-energy deficit drops below eps_thr.

    The deficit is 1 - sum(sigma[:r]) / sum(sigma); r = len(sigma) always
    satisfies the bound since the ratio reaches one.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("sigma must be a non-empty 1-d array")
    if np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be non-negative and non-increasing")
    total = sigma.sum()
    if total == 0.0:
        raise ValueError("all-zero spectrum has no meaningful rank")
    deficit = 1.0 - np.cumsum(sigma) / total
    deficit[-1] = 0.0  # exact in real arithmetic; cumsum rounding must not flip it
    return int(np.argmax(deficit < eps_thr)) + 1


def qdeim_window(u_window, eps_values) -> list[tuple[list[int], list[int]]]:
    """Spatial and temporal pivot indices for one snapshot block, one pair
    per rank threshold in ``eps_values``.

    One SVD ranks the block at every threshold; each distinct rank r then
    pivots the transposed leading r left and right singular vectors once,
    so the chosen rows index space and the chosen columns index time. The
    pivots depend only on those vectors and r, so thresholds of one rank
    share one pair.
    """
    u_window = np.asarray(u_window, dtype=float)
    if u_window.size == 0:
        raise ValueError("empty window")
    factors = svd(u_window)
    by_rank, pairs = {}, []
    for eps_thr in eps_values:
        r = select_rank(factors.singular_values, eps_thr)
        if r not in by_rank:
            z_r = factors.left[:, :r]      # (n, r)
            y_r_t = factors.right_t[:r, :]  # (r, m)
            by_rank[r] = ([int(i) for i in pivoted_qr(z_r.T)[:r]],
                          [int(j) for j in pivoted_qr(y_r_t)[:r]])
        pairs.append(by_rank[r])
    return pairs


def qdeim_grid(s: SnapshotMatrix, t_divs, eps_values) -> list[SampleSet]:
    """Greedy sample sets over the (t_div, eps) grid, t_div-major: one set
    per pair.

    Every pair and window is checked before the first SVD, so a bad t_div or
    threshold, or an all-zero window, raises ValueError before any work. Each
    t_div's windows are then factored once for all thresholds (see
    ``qdeim_window``). The pivots depend only on the window and its rank, so
    thresholds that give every window of a t_div the same rank get the same
    ``SampleSet`` object.
    """
    eps_values, bounds = tuple(eps_values), {}
    for t_div in t_divs:  # in grid order, so the first bad pair is the one named
        bounds[t_div] = subdivide_time(s.m, t_div)
        for eps_thr in eps_values:
            QdeimConfig(t_div, eps_thr)
        for start, end in bounds[t_div]:
            if not s.u[:, start:end].any():
                raise ValueError(f"t_div {t_div}: columns {start}:{end} are all zero")
    sets, by_ranks = [], {}  # (t_div, per-window ranks) -> the set they select
    for t_div in t_divs:
        windows = [qdeim_window(s.u[:, start:end], eps_values) for start, end in bounds[t_div]]
        for pairs in zip(*windows):  # per threshold, its (spatial, temporal) per window
            key = (t_div, tuple(len(sp) for sp, _ in pairs))
            if key not in by_ranks:
                by_ranks[key] = _pivot_grid(s, [list(sp) for sp, _ in pairs],
                                            [[start + j for j in tp] for (start, _), (_, tp)
                                             in zip(bounds[t_div], pairs)])
            sets.append(by_ranks[key])
    return sets


def qdeim_sample(s: SnapshotMatrix, cfg: QdeimConfig) -> SampleSet:
    """Greedy sample set of one (t_div, eps) config: per window, the spatial
    x temporal pivot grid, spatial-major (each spatial pivot runs over every
    temporal pivot)."""
    [samples] = qdeim_grid(s, (cfg.t_div,), (cfg.eps_thr,))
    return samples


def _pivot_grid(s: SnapshotMatrix, spatial_pivots, temporal_pivots) -> SampleSet:
    pivots = list(zip(spatial_pivots, temporal_pivots))
    x_idx = np.concatenate([np.repeat(sp, len(tp)) for sp, tp in pivots])
    t_idx = np.concatenate([np.tile(tp, len(sp)) for sp, tp in pivots])
    window_id = np.repeat(np.arange(len(pivots)), [len(sp) * len(tp) for sp, tp in pivots])
    return SampleSet(
        t_norm=s.t_norm[t_idx], x_norm=s.x_norm[x_idx], u=s.u[x_idx, t_idx],
        window_id=window_id, x_idx=x_idx, t_idx=t_idx,
        spatial_pivots=spatial_pivots, temporal_pivots=temporal_pivots)


def random_sample(s: SnapshotMatrix, size: int, seed: int) -> SampleSet:
    """Uniform draw of `size` distinct grid points, reproducible per seed."""
    total = s.n * s.m
    if not 1 <= size <= total:
        raise ValueError(f"size {size} out of range [1, {total}]")
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=size, replace=False)
    x_idx, t_idx = np.unravel_index(flat, (s.n, s.m))
    return SampleSet(
        t_norm=s.t_norm[t_idx], x_norm=s.x_norm[x_idx], u=s.u[x_idx, t_idx],
        window_id=np.zeros(size, dtype=int),
        x_idx=np.asarray(x_idx, dtype=int), t_idx=np.asarray(t_idx, dtype=int))


def sample_size_grid(min_n: int, max_n: int) -> list[int]:
    """Eleven integer sizes from min_n to max_n inclusive, linearly spaced.

    Values are rounded, then deduplicated so the result is strictly
    increasing; the endpoints survive exactly.
    """
    if min_n >= max_n:
        raise ValueError(f"need min_n < max_n, got {min_n} >= {max_n}")
    raw = np.linspace(min_n, max_n, 11)
    sizes: list[int] = []
    for v in np.rint(raw).astype(int):
        if not sizes or v > sizes[-1]:
            sizes.append(int(v))
    return sizes
