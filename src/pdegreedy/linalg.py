"""Dense matrix kernels: thin SVD, column-pivoted QR, QR least squares.

numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool. The SVD runs in numpy's and the QRs run in scipy's, and the
sampler alternates between them, so one pool's spinning threads hold the
cores while the other works. scipy's pool is therefore set to one thread
at import. numpy's pool keeps its size everywhere except inside a jet
pass, which pins it to one thread (``numpy_blas_pinned``) and, when it
runs threads of its own, stops the pool's idle workers first
(``stop_numpy_blas_workers``). The sampler's SVD, whose bits and so the
greedy pivots depend on the pool size, always runs at the pool's own size.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.linalg


class SvdConvergenceError(RuntimeError):
    """The SVD iteration failed to converge."""


class RankDeficiencyError(ValueError):
    """A least-squares matrix lost full column rank."""

    def __init__(self, column: int, ratio: float):
        self.column = column
        self.ratio = ratio
        super().__init__(
            f"rank deficiency at column {column}: "
            f"|r[{column},{column}]| / |r[0,0]| = {ratio:.3e} < 1e-12"
        )


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD a = left @ diag(singular_values) @ right_t."""

    left: np.ndarray            # (n, z), orthonormal columns
    singular_values: np.ndarray  # (z,), non-increasing, non-negative
    right_t: np.ndarray         # (z, m), orthonormal rows

    @property
    def rank_limit(self) -> int:
        return self.singular_values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right_t


@dataclass(frozen=True)
class PivotedQr:
    """Column-pivoted factorization q @ r = a[:, pivots]."""

    q: np.ndarray       # orthonormal columns
    r: np.ndarray       # upper triangular, |r[i,i]| non-increasing
    pivots: np.ndarray  # column indices in greedy selection order


@dataclass(frozen=True)
class _BlasPool:
    path: Path
    get: Callable[[], int]
    set: Callable[[int], None]
    shutdown: Callable[[], int] | None


def _num_threads_symbol(lib: ctypes.CDLL, verb: str, argtypes, restype):
    """OpenBLAS's `int get()` / `void set(int)`, under any of the names
    that scipy-openblas (LP64 or ILP64) and plain OpenBLAS builds export."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


def _bundled_openblas(module) -> _BlasPool | None:
    """The OpenBLAS a wheel bundles in <site-packages>/<name>.libs/, if any."""
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = _num_threads_symbol(lib, "get", [], ctypes.c_int)
        set_ = _num_threads_symbol(lib, "set", [ctypes.c_int], None)
        if get is not None and set_ is not None:
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return _BlasPool(path, get, set_, shutdown)
    return None


_NUMPY_BLAS = _bundled_openblas(np)
_SCIPY_BLAS = _bundled_openblas(scipy)
if _SCIPY_BLAS is not None and _NUMPY_BLAS is not None \
        and os.path.samefile(_SCIPY_BLAS.path, _NUMPY_BLAS.path):
    _SCIPY_BLAS = None
if _SCIPY_BLAS is not None:
    _SCIPY_BLAS.set(1)


def blas_threads() -> dict:
    """Live thread counts of numpy's and scipy's bundled OpenBLAS pools.

    An entry is None where that library is not found; scipy's is also None
    when scipy shares numpy's library.
    """
    return {name: None if pool is None else pool.get()
            for name, pool in (("numpy", _NUMPY_BLAS), ("scipy", _SCIPY_BLAS))}


@contextlib.contextmanager
def numpy_blas_pinned():
    """numpy's bundled OpenBLAS pool at one thread inside the block, its
    former size restored on exit; nothing changes where the pool is not
    found. Not for concurrent use from several threads."""
    if _NUMPY_BLAS is None:
        yield
        return
    before = _NUMPY_BLAS.get()
    _NUMPY_BLAS.set(1)
    try:
        yield
    finally:
        _NUMPY_BLAS.set(before)


def stop_numpy_blas_workers() -> None:
    """Stop the idle worker threads of numpy's bundled OpenBLAS pool where
    the library exports a way to. They spin for about 0.1 s after each
    threaded call, taking a core from whatever runs next; the next threaded
    call starts them again at the same count, and its results keep their
    bits. Restarting costs more than the spin in processes that share the
    cores with other workers, so only callers with threads of their own
    to run use this."""
    if _NUMPY_BLAS is not None and _NUMPY_BLAS.shutdown is not None:
        _NUMPY_BLAS.shutdown()


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def svd(a) -> SvdFactors:
    """Thin SVD of a real matrix.

    Raises SvdConvergenceError if the underlying LAPACK iteration fails.
    """
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not report its iteration count; pass shape instead.
        raise SvdConvergenceError(
            f"SVD iteration did not converge on a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return SvdFactors(left=u, singular_values=s, right_t=vt)


def truncate(f: SvdFactors, r: int) -> SvdFactors:
    """Keep the leading r singular triplets."""
    if not 1 <= r <= f.rank_limit:
        raise ValueError(f"rank {r} out of range [1, {f.rank_limit}]")
    return SvdFactors(
        left=f.left[:, :r],
        singular_values=f.singular_values[:r],
        right_t=f.right_t[:r, :],
    )


def pivoted_qr(a) -> PivotedQr:
    """QR factorization with greedy column pivoting.

    The first pivot is the column of maximal 2-norm; each later pivot
    maximizes the residual norm after projecting out the columns already
    chosen. Ties resolve to the lowest column index (LAPACK geqp3 scans
    left to right), so a zero matrix pivots in index order.
    """
    a = _as_matrix(a)
    q, r, pivots = scipy.linalg.qr(a, mode="economic", pivoting=True)
    return PivotedQr(q=q, r=r, pivots=pivots)


def qr_least_squares(a, b) -> np.ndarray:
    """Minimize ||a x - b||_2 via x = R^{-1} Q^T b.

    Requires rows >= cols and full column rank; rank loss is detected
    through the diagonal of R relative to |r[0,0]|.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float).reshape(-1)
    n, k = a.shape
    if n < k:
        raise ValueError(f"system is underdetermined: {n} rows < {k} cols")
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} != {n} rows")
    q, r = scipy.linalg.qr(a, mode="economic")
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        raise RankDeficiencyError(0, 0.0)
    ratios = diag / diag[0]
    bad = np.nonzero(ratios < 1e-12)[0]
    if bad.size:
        raise RankDeficiencyError(int(bad[0]), float(ratios[bad[0]]))
    return scipy.linalg.solve_triangular(r, q.T @ b)
