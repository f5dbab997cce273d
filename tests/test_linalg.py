import functools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pdegreedy import experiments, linalg, siren
from pdegreedy.linalg import (RankDeficiencyError, pivoted_qr,
                              qr_least_squares, svd)

def greedy_pivot_oracle(a):
    """Brute-force greedy pivoting: explicit projections, ties to lowest index."""
    cols = np.array(a, dtype=float)
    pivots = []
    for _ in range(min(a.shape)):
        norms = np.linalg.norm(cols, axis=0)
        j = int(np.argmax(norms))  # argmax returns the first maximum
        pivots.append(j)
        if norms[j] > 0:
            v = cols[:, j] / norms[j]
            cols = cols - np.outer(v, v @ cols)
    return pivots


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 1.0])
        # permutation-signed identities
        assert np.allclose(np.abs(f.left), np.eye(2))
        assert np.allclose(np.abs(f.right_t), np.eye(2))

    def test_random_reconstruction_and_gram_oracle(self, rng):
        a = rng.standard_normal((10, 6))
        f = svd(a)
        s1 = f.singular_values[0]
        assert np.linalg.norm(rank_r(f, 6) - a) < 1e-10 * s1
        # independent oracle: sqrt of eigenvalues of the Gram matrix
        gram_eigs = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(f.singular_values,
                                   np.sqrt(np.maximum(gram_eigs, 0.0)),
                                   rtol=1e-10, atol=1e-10 * s1)

    def test_orthonormality(self, rng):
        a = rng.standard_normal((9, 7))
        f = svd(a)
        assert np.linalg.norm(f.left.T @ f.left - np.eye(7)) < 1e-10
        assert np.linalg.norm(f.right_t @ f.right_t.T - np.eye(7)) < 1e-10
        assert np.all(np.diff(f.singular_values) <= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def rank_r(f, r):
    """The rank-r truncation of an SVD, multiplied out."""
    return (f.left[:, :r] * f.singular_values[:r]) @ f.right_t[:r]


class TestTruncate:
    def test_full_rank_reconstructs(self, rng):
        a = rng.standard_normal((5, 5))
        f = svd(a)
        assert np.linalg.norm(rank_r(f, 5) - a) < 1e-10 * f.singular_values[0]

    def test_discarded_sigma(self):
        err = np.linalg.norm(np.diag([3.0, 1.0]) - rank_r(svd(np.diag([3.0, 1.0])), 1))
        assert abs(err - 1.0) < 1e-12

    def test_tail_energy_formula(self, rng):
        a = rng.standard_normal((8, 8))
        full = svd(a)
        r = 4
        err = np.linalg.norm(a - rank_r(full, r))
        tail = np.sqrt(np.sum(full.singular_values[r:] ** 2))
        assert abs(err - tail) <= 1e-8 * tail

    def test_eckart_young_sampled(self, rng):
        # no random rank-r factorization should beat the SVD truncation
        a = rng.standard_normal((7, 9))
        r = 3
        best = np.linalg.norm(a - rank_r(svd(a), r))
        for _ in range(25):
            left = rng.standard_normal((7, r))
            coef, *_ = np.linalg.lstsq(left, a, rcond=None)
            assert best <= np.linalg.norm(a - left @ coef) + 1e-9


class TestPivotedQr:
    def test_dominant_first_column(self):
        assert pivoted_qr(np.array([[2.0, 0.0], [0.0, 1.0]])).tolist() == [0, 1]

    def test_row_vector_argmax(self):
        assert pivoted_qr(np.array([[1.0, -3.0, 2.0]]))[0] == 1

    def test_zero_matrix_index_order(self):
        assert pivoted_qr(np.zeros((3, 4))).tolist() == [0, 1, 2, 3]

    def test_greedy_property_vs_oracle(self, rng):
        for _ in range(40):
            rows = rng.integers(1, 9)
            cols = rng.integers(1, 13)
            a = rng.standard_normal((rows, cols))
            oracle = greedy_pivot_oracle(a)
            assert pivoted_qr(a)[:len(oracle)].tolist() == oracle

    def test_greedy_prefix_on_3x5(self, rng):
        a = rng.standard_normal((3, 5))
        assert pivoted_qr(a)[:3].tolist() == greedy_pivot_oracle(a)


class TestScipyOracle:
    """Bits equal to scipy.linalg's QR routines, which the kernels replace."""

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (1, 7), (7, 1), (30, 60), (60, 30)])
    def test_pivots_random(self, rng, shape):
        for _ in range(20):
            a = rng.standard_normal(shape)
            assert np.array_equal(pivoted_qr(a), scipy_pivots(a))

    def test_pivots_orthogonal_all_ties(self):
        # every column norm is 1, so rounding alone orders the pivots
        for n in (2, 5, 16, 40):
            q = np.linalg.svd(np.random.default_rng(n).standard_normal((n, n)))[0]
            assert np.array_equal(pivoted_qr(q), scipy_pivots(q))

    def test_pivots_repeated_columns(self, rng):
        for _ in range(20):
            base = rng.standard_normal((12, 4))
            a = base[:, rng.integers(0, 4, 10)]
            assert np.array_equal(pivoted_qr(a), scipy_pivots(a))

    @pytest.mark.parametrize("cols", range(2, 10))
    def test_least_squares_bytes(self, rng, cols):
        for _ in range(25):
            a = rng.standard_normal((rng.integers(cols, 400), cols))
            b = rng.standard_normal(a.shape[0])
            q, r = scipy.linalg.qr(a, mode="economic")
            expected = scipy.linalg.solve_triangular(r, q.T @ b)
            assert qr_least_squares(a, b).tobytes() == expected.tobytes()


def test_import_without_dgeqp3_names_numpy_blas():
    out = run_fresh("import ctypes\n"
                    "class NoDgeqp3(ctypes.CDLL):\n"
                    "    def __getattr__(self, name):\n"
                    "        if 'dgeqp3' in name:\n"
                    "            raise AttributeError(name)\n"
                    "        return super().__getattr__(name)\n"
                    "ctypes.CDLL = NoDgeqp3\n"
                    "try:\n"
                    "    import pdegreedy.linalg\n"
                    "except ImportError as exc:\n"
                    "    print(exc)\n")
    assert out.startswith("pdegreedy.linalg needs LAPACK dgeqp3 from numpy's BLAS build (")


def scipy_pivots(a):
    return scipy.linalg.qr(a, mode="r", pivoting=True)[1]


class TestQrLeastSquares:
    def test_identity(self, rng):
        b = rng.standard_normal(4)
        np.testing.assert_allclose(qr_least_squares(np.eye(4), b), b)

    def test_mean_of_two_points(self):
        x = qr_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        np.testing.assert_allclose(x, [1.0])

    def test_normal_equations_oracle(self, rng):
        a = rng.standard_normal((50, 3))
        b = rng.standard_normal(50)
        x = qr_least_squares(a, b)
        # explicit 3x3 inverse route
        gram = a.T @ a
        adj = np.array([
            [gram[1, 1] * gram[2, 2] - gram[1, 2] * gram[2, 1],
             gram[0, 2] * gram[2, 1] - gram[0, 1] * gram[2, 2],
             gram[0, 1] * gram[1, 2] - gram[0, 2] * gram[1, 1]],
            [gram[1, 2] * gram[2, 0] - gram[1, 0] * gram[2, 2],
             gram[0, 0] * gram[2, 2] - gram[0, 2] * gram[2, 0],
             gram[0, 2] * gram[1, 0] - gram[0, 0] * gram[1, 2]],
            [gram[1, 0] * gram[2, 1] - gram[1, 1] * gram[2, 0],
             gram[0, 1] * gram[2, 0] - gram[0, 0] * gram[2, 1],
             gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]]])
        det = (gram[0, 0] * adj[0, 0] + gram[0, 1] * adj[1, 0]
               + gram[0, 2] * adj[2, 0])
        oracle = (adj / det) @ (a.T @ b)
        np.testing.assert_allclose(x, oracle, atol=1e-10)

    def test_local_optimality(self, rng):
        a = rng.standard_normal((20, 4))
        b = rng.standard_normal(20)
        x = qr_least_squares(a, b)
        base = np.linalg.norm(a @ x - b)
        for _ in range(20):
            perturbed = x + 1e-3 * rng.standard_normal(4)
            assert base <= np.linalg.norm(a @ perturbed - b) + 1e-9

    def test_rank_deficiency_names_column(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # col 1 = 2 * col 0
        with pytest.raises(RankDeficiencyError) as err:
            qr_least_squares(a, np.ones(3))
        assert err.value.column == 1

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            qr_least_squares(np.ones((2, 3)), np.ones(2))


def _pool_threads(_task):
    return linalg.blas_threads()


def run_fresh(script: str) -> str:
    """stdout of ``script`` in a new interpreter that can import pdegreedy."""
    src = str(Path(linalg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


# numpy's pool size, read in an interpreter that has not imported pdegreedy
NUMPY_POOL_EXPR = ("None" if linalg._NUMPY_BLAS is None else
                   f"ctypes.CDLL({str(linalg._NUMPY_BLAS.path)!r})"
                   f"[{linalg._NUMPY_BLAS.get.__name__!r}]()")

needs_numpy_pool = pytest.mark.skipif(
    linalg._NUMPY_BLAS is None,
    reason="numpy's OpenBLAS is not a library bundled in numpy.libs/")


class TestBlasPools:
    def test_import_sets_the_pool_to_one_thread(self):
        # a fresh interpreter reads numpy's pool before pdegreedy is imported
        out = run_fresh("import ctypes, json, numpy\n"
                        f"before = {NUMPY_POOL_EXPR}\n"
                        "import pdegreedy\n"
                        "print(json.dumps([before, pdegreedy.linalg.blas_threads()]))\n")
        before, after = json.loads(out)
        assert after == {"numpy": None if before is None else 1, "svd": before}

    @needs_numpy_pool
    def test_svd_bits_are_numpy_svd_at_import_size(self, tmp_path):
        if linalg.blas_threads()["svd"] == 1:
            pytest.skip("numpy's pool has one thread here, so no size to tell apart")
        a = np.random.default_rng(0).standard_normal((300, 120))
        path = tmp_path / "svd.npz"
        run_fresh("import numpy\n"  # never imports pdegreedy
                  "a = numpy.random.default_rng(0).standard_normal((300, 120))\n"
                  f"numpy.savez({str(path)!r}, *numpy.linalg.svd(a, full_matrices=False))\n")
        with np.load(path) as saved:
            fresh = [saved[f"arr_{i}"] for i in range(3)]

        def same(factors):
            return all(np.array_equal(x, y) for x, y in zip(factors, fresh))

        # the matrix's bits differ between one thread and the pool's size
        assert not same(np.linalg.svd(a, full_matrices=False))
        f = linalg.svd(a)
        assert same((f.left, f.singular_values, f.right_t))
        assert linalg.blas_threads()["numpy"] == 1

    @needs_numpy_pool
    def test_pool_back_at_one_thread_when_svd_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            assert linalg.blas_threads()["numpy"] == linalg.blas_threads()["svd"]
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(linalg.SvdConvergenceError):
            linalg.svd(np.eye(3))
        assert linalg.blas_threads()["numpy"] == 1

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pin_holds_in_pool_workers(self, method, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        workers = experiments._map_tasks(_pool_threads, [0, 1], jobs=2)
        assert workers == [linalg.blas_threads()] * 2

    def test_jet_pass_leaves_pool_size_and_svd_bits(self, rng):
        # an SVD, a jet pass on stripes, an SVD: the pools read as before
        # and the two SVDs agree in every bit
        a = rng.standard_normal((300, 120))
        sizes, first = linalg.blas_threads(), linalg.svd(a)
        siren.forward_jet(siren.init_siren((2, 16, 16, 1)), np.linspace(0, 1, 600), np.zeros(600),
                          max_x_order=3)
        assert linalg.blas_threads() == sizes
        last = linalg.svd(a)
        for x, y in ((first.left, last.left), (first.singular_values, last.singular_values),
                     (first.right_t, last.right_t)):
            assert np.array_equal(x, y)
