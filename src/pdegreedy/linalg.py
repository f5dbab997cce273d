"""Dense matrix kernels: thin SVD, QR pivot order, QR least squares.

numpy and scipy wheels each bundle their own OpenBLAS, each with its own
thread pool. This module owns both pools. At import it records numpy's
pool size as the SVD's size, then sets both pools to one thread, so every
other numpy and scipy call (the QRs, the jet passes' GEMMs) runs on the
calling thread. ``svd`` raises numpy's pool to the recorded size for the
LAPACK call only: the SVD's bits, and with them the greedy pivots, depend
on that size. Afterwards the pool is back at one thread and its idle
workers, which would spin on the cores for about 0.1 s, are stopped.
Importing this module therefore sets numpy's pool to one thread for the
whole process.
"""

from __future__ import annotations

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
# the size the sampler's SVD has always run at
_SVD_THREADS = None if _NUMPY_BLAS is None else _NUMPY_BLAS.get()
for _pool in (_NUMPY_BLAS, _SCIPY_BLAS):
    if _pool is not None:
        _pool.set(1)


def blas_threads() -> dict:
    """Live thread counts of numpy's and scipy's bundled OpenBLAS pools,
    and the size numpy's pool takes inside ``svd``.

    An entry is None where that library is not found; scipy's is also None
    when scipy shares numpy's library.
    """
    return {"numpy": None if _NUMPY_BLAS is None else _NUMPY_BLAS.get(),
            "scipy": None if _SCIPY_BLAS is None else _SCIPY_BLAS.get(),
            "svd": _SVD_THREADS}


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def svd(a) -> SvdFactors:
    """Thin SVD of a real matrix, on numpy's pool at its import-time size.

    Raises SvdConvergenceError if the underlying LAPACK iteration fails.
    """
    a = _as_matrix(a)
    if _NUMPY_BLAS is not None:
        _NUMPY_BLAS.set(_SVD_THREADS)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not report its iteration count; pass shape instead.
        raise SvdConvergenceError(
            f"SVD iteration did not converge on a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    finally:
        if _NUMPY_BLAS is not None:
            _NUMPY_BLAS.set(1)
            if _NUMPY_BLAS.shutdown is not None:  # idle workers would spin ~0.1 s
                _NUMPY_BLAS.shutdown()
    return SvdFactors(left=u, singular_values=s, right_t=vt)


def pivoted_qr(a) -> np.ndarray:
    """Column indices of ``a`` in the greedy order of QR with column pivoting.

    The first pivot is the column of maximal 2-norm; each later pivot
    maximizes the residual norm after projecting out the columns already
    chosen. Ties resolve to the lowest column index (LAPACK geqp3 scans
    left to right), so a zero matrix pivots in index order. Only R is
    computed; Q is never formed.
    """
    _, pivots = scipy.linalg.qr(_as_matrix(a), mode="r", pivoting=True)
    return pivots


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
