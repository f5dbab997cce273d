"""Dense matrix kernels: thin SVD, QR pivot order, QR least squares.

Every kernel runs on the OpenBLAS bundled with numpy, and nothing comes
from scipy: ``pivoted_qr`` calls that library's LAPACK ``dgeqp3`` through
ctypes, and importing this module raises ImportError where numpy's BLAS
exports none. At import the module records the library's thread pool size
as the SVD's size, then sets the pool to one thread for the whole process,
so every other call (the QRs, the jet passes' GEMMs) runs on the calling
thread. ``svd`` raises the pool to the recorded size for the LAPACK call
only: the SVD's bits, and with them the greedy pivots, depend on that
size. Afterwards the pool is back at one thread and its idle workers,
which would spin on the cores for about 0.1 s, are stopped.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg


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


def _symbol(lib: ctypes.CDLL, name: str, argtypes, restype):
    """``name`` under any of the names that scipy-openblas (ILP64 or LP64)
    and plain OpenBLAS builds export; an ILP64 name ends in ``64_``."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
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
        get = _symbol(lib, "openblas_get_num_threads", [], ctypes.c_int)
        set_ = _symbol(lib, "openblas_set_num_threads", [ctypes.c_int], None)
        if get is not None and set_ is not None:
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return _BlasPool(path, get, set_, shutdown)
    return None


def blas_build() -> str:
    """Name and version of the BLAS build numpy reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


_NUMPY_BLAS = _bundled_openblas(np)
# the size the sampler's SVD has always run at
_SVD_THREADS = None if _NUMPY_BLAS is None else _NUMPY_BLAS.get()
if _NUMPY_BLAS is not None:
    _NUMPY_BLAS.set(1)

# dgeqp3(m, n, a, lda, jpvt, tau, work, lwork, info), every argument by
# reference; a symbol lookup in numpy.linalg's extension also searches the
# BLAS/LAPACK library it is linked to
_DGEQP3 = _symbol(ctypes.CDLL(_umath_linalg.__file__), "dgeqp3_",
                  [ctypes.c_void_p] * 9, None)
if _DGEQP3 is None:
    raise ImportError(f"pdegreedy.linalg needs LAPACK dgeqp3 from numpy's BLAS build "
                      f"({blas_build()}), which exports none")
_LAPACK_INT = ctypes.c_int64 if _DGEQP3.__name__.endswith("64_") else ctypes.c_int32


def blas_threads() -> dict:
    """Live thread count of numpy's bundled OpenBLAS pool, and the size
    the pool takes inside ``svd``; None where the library is not found."""
    return {"numpy": None if _NUMPY_BLAS is None else _NUMPY_BLAS.get(),
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
    a = np.array(_as_matrix(a), order="F")  # dgeqp3 overwrites a column-major copy
    rows, cols = (_LAPACK_INT(size) for size in a.shape)
    pivots = np.zeros(a.shape[1], _LAPACK_INT)  # a nonzero entry would pin its column first
    tau = np.empty(min(a.shape))
    info = _LAPACK_INT(0)

    def dgeqp3(work, lwork):
        _DGEQP3(ctypes.byref(rows), ctypes.byref(cols), a.ctypes.data, ctypes.byref(rows),
                pivots.ctypes.data, tau.ctypes.data, work.ctypes.data,
                ctypes.byref(_LAPACK_INT(lwork)), ctypes.byref(info))
        if info.value != 0:
            raise RuntimeError(f"dgeqp3 returned info = {info.value}")

    query = np.empty(1)
    dgeqp3(query, -1)  # writes the optimal workspace size to query[0]
    work = np.empty(int(query[0]))
    dgeqp3(work, work.size)
    return pivots.astype(np.intp) - 1  # LAPACK's pivots are 1-based


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
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        raise RankDeficiencyError(0, 0.0)
    ratios = diag / diag[0]
    bad = np.nonzero(ratios < 1e-12)[0]
    if bad.size:
        raise RankDeficiencyError(int(bad[0]), float(ratios[bad[0]]))
    # q comes in C order, and there q.T @ b runs another GEMV with other bits
    y = np.asfortranarray(q).T @ b
    x = np.empty(k)
    for i in range(k - 1, -1, -1):
        x[i] = (y[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x
