"""Space-time snapshot matrices: load, save, subdivide, generate."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.fft import _pocketfft_umath
from scipy.integrate import solve_ivp

from .features import DomainScales, PdeSpec


class SnapshotParseError(ValueError):
    """A snapshot file failed to parse; the message names the line."""


class IntegrationBlowupError(RuntimeError):
    def __init__(self, time: float, detail: str = "solution magnitude exceeded 1e6"):
        self.time = time
        super().__init__(f"integration failed near t = {time:.6g}: {detail}")


@dataclass(frozen=True)
class SnapshotMatrix:
    """PDE solution values on a grid: rows are spatial points, columns times."""

    u: np.ndarray        # (n, m)
    x_phys: np.ndarray   # (n,), strictly increasing
    t_phys: np.ndarray   # (m,), strictly increasing

    def __post_init__(self):
        n, m = self.u.shape
        if n < 2 or m < 2:
            raise ValueError(f"need at least a 2x2 grid, got {n}x{m}")
        for label, axis, length in (("x", self.x_phys, n), ("t", self.t_phys, m)):
            if axis.shape != (length,):
                raise ValueError(f"{label} axis length {axis.shape} != {length}")
            if not np.all(np.diff(axis) > 0):
                raise ValueError(f"{label} axis is not strictly increasing")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("snapshot contains non-finite values")

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def x_norm(self) -> np.ndarray:
        """x mapped onto [-1, 1]; -1 + 2(x - x_min)/(x_max - x_min) hits the
        endpoints exactly."""
        x = self.x_phys
        return -1.0 + 2.0 * (x - x[0]) / (x[-1] - x[0])

    @property
    def t_norm(self) -> np.ndarray:
        """t mapped onto [0, 1]."""
        t = self.t_phys
        return (t - t[0]) / (t[-1] - t[0])

    @property
    def scales(self) -> DomainScales:
        return DomainScales(
            s_t=float(self.t_phys[-1] - self.t_phys[0]),
            s_x=float(self.x_phys[-1] - self.x_phys[0]) / 2.0,
        )

    @classmethod
    def from_physical(cls, u, x, t) -> "SnapshotMatrix":
        return cls(u=np.asarray(u, dtype=float), x_phys=np.asarray(x, dtype=float).reshape(-1),
                   t_phys=np.asarray(t, dtype=float).reshape(-1))


def subdivide_time(m: int, t_div: int) -> list[tuple[int, int]]:
    """Partition m columns into t_div near-equal contiguous windows.

    Window i spans [round(i*m/t_div), round((i+1)*m/t_div)), rounded
    exactly with ties to even; the rounding balances remainder columns
    across the windows.
    """
    if not 1 <= t_div <= m:
        raise ValueError(f"t_div {t_div} out of range [1, {m}]")
    bounds = [round(Fraction(i * m, t_div)) for i in range(t_div + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# file formats

def _is_csv(path) -> bool:
    """A ``.csv`` suffix (any case) means long-format CSV; any other, matrix-text."""
    return Path(path).suffix.lower() == ".csv"


def save_snapshot(s: SnapshotMatrix, path) -> None:
    """Write a snapshot in the format its suffix picks; both round-trip at 17
    significant digits."""
    if _is_csv(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "t", "u"])
            for i in range(s.n):
                for j in range(s.m):
                    writer.writerow(["%.17g" % s.x_phys[i], "%.17g" % s.t_phys[j],
                                     "%.17g" % s.u[i, j]])
    else:
        with open(path, "w") as fh:
            fh.write(f"{s.n} {s.m}\n")
            fh.write(" ".join("%.17g" % v for v in s.x_phys) + "\n")
            fh.write(" ".join("%.17g" % v for v in s.t_phys) + "\n")
            for row in s.u:
                fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_snapshot(path) -> SnapshotMatrix:
    """Read a snapshot file in the format its suffix picks."""
    u, x, t = (_read_csv if _is_csv(path) else _read_matrix_text)(path)
    try:
        return SnapshotMatrix.from_physical(u, x, t)
    except ValueError as exc:
        raise SnapshotParseError(f"{path}: {exc}") from exc


def _parse_floats(text: str, path, lineno: int, expected: int) -> np.ndarray:
    parts = text.split()
    if len(parts) != expected:
        raise SnapshotParseError(
            f"{path}:{lineno}: expected {expected} values, found {len(parts)}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        raise SnapshotParseError(f"{path}:{lineno}: non-numeric value") from None
    if not np.all(np.isfinite(values)):
        raise SnapshotParseError(f"{path}:{lineno}: non-finite value")
    return values


def _read_matrix_text(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SnapshotParseError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise SnapshotParseError(f"{path}:1: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise SnapshotParseError(f"{path}:1: header must be two integers") from None
    if len(lines) < 3 + n:
        raise SnapshotParseError(f"{path}: expected {3 + n} lines, found {len(lines)}")
    x = _parse_floats(lines[1], path, 2, n)
    t = _parse_floats(lines[2], path, 3, m)
    for label, axis, lineno in (("x", x, 2), ("t", t, 3)):
        if not np.all(np.diff(axis) > 0):
            raise SnapshotParseError(f"{path}:{lineno}: {label} axis not strictly increasing")
    u = np.empty((n, m))
    for i in range(n):
        u[i] = _parse_floats(lines[3 + i], path, 4 + i, m)
    return u, x, t


def _read_csv(path):
    triples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "t", "u"]:
            raise SnapshotParseError(f"{path}:1: expected header 'x,t,u'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SnapshotParseError(f"{path}:{lineno}: expected 3 columns")
            try:
                triples.append(tuple(float(v) for v in row))
            except ValueError:
                raise SnapshotParseError(f"{path}:{lineno}: non-numeric value") from None
            if not all(np.isfinite(triples[-1])):
                raise SnapshotParseError(f"{path}:{lineno}: non-finite value")
    if not triples:
        raise SnapshotParseError(f"{path}: no data rows")
    xs = np.unique([p[0] for p in triples])
    ts = np.unique([p[1] for p in triples])
    if len(triples) != xs.size * ts.size:
        raise SnapshotParseError(
            f"{path}: {len(triples)} rows do not fill a {xs.size}x{ts.size} grid")
    u = np.full((xs.size, ts.size), np.nan)
    xi = {v: i for i, v in enumerate(xs)}
    ti = {v: j for j, v in enumerate(ts)}
    for xv, tv, uv in triples:
        u[xi[xv], ti[tv]] = uv
    if np.any(np.isnan(u)):
        raise SnapshotParseError(f"{path}: grid has missing (x, t) combinations")
    return u, xs, ts


# ---------------------------------------------------------------------------
# synthetic data: pseudospectral method of lines on a periodic domain

def _two_soliton(x, x_min, x_max, rng):
    mid = 0.5 * (x_min + x_max)
    span = x_max - x_min
    out = np.zeros_like(x)
    for speed, offset in ((1.0, mid - span / 3.0), (0.5, mid - span / 6.0)):
        out += 0.5 * speed / np.cosh(0.5 * np.sqrt(speed) * (x - offset)) ** 2
    return out


def _random_fourier(x, x_min, x_max, rng):
    xi = (x - x_min) / (x_max - x_min)
    out = np.zeros_like(x)
    for j in range(1, 7):
        amp = rng.standard_normal() / j ** 2
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += amp * np.cos(2.0 * np.pi * j * xi + phase)
    return out


INITIAL_CONDITIONS = {
    "zero": lambda x, x_min, x_max, rng: np.zeros_like(x),
    # localized bump, 1/16 of the domain wide, left of center so it travels
    "gaussian": lambda x, x_min, x_max, rng: np.exp(
        -((x - (0.5 * (x_min + x_max) - (x_max - x_min) / 8.0))
          / ((x_max - x_min) / 16.0)) ** 2),
    "cosine-bump": lambda x, x_min, x_max, rng: (
        ((x - 0.5 * (x_min + x_max)) / (0.5 * (x_max - x_min))) ** 2
        * np.cos(np.pi * (x - 0.5 * (x_min + x_max)) / (0.5 * (x_max - x_min)))),
    "two-soliton": _two_soliton,
    "random-fourier": _random_fourier,
}

BLOWUP_LIMIT = 1e6
RTOL = 1e-8  # DOP853's relative tolerance; no protocol varies it
# Right-hand-side calls allowed while tau gains less than 1/100 of the output
# interval (KdV needs ~4 400 per unit time); a u_xxxx term collapses the step.
RHS_CALL_BUDGET = 20_000


def generate_synthetic(spec: PdeSpec, n: int, m: int, domain, init: str = "gaussian",
                       seed: int = 0) -> SnapshotMatrix:
    """Integrate du/dt = sum_j p_j term_j(u, u_x, ...) on a periodic grid.

    Spatial derivatives are spectral; time stepping is adaptive explicit
    (DOP853) on an integrating-factor transform that absorbs the linear
    single-derivative terms, so dispersive operators such as u_xxx do not
    constrain the step size. A right-hand-side call takes one batched inverse
    FFT, one FFT and one exponential (two if lin has a real part), with the
    bytes of one inverse FFT per derivative order. It calls numpy's pocketfft
    gufuncs directly, into work arrays made once per generation; only its
    result is a new array. More than RHS_CALL_BUDGET calls while tau gains
    under 1/100 of an interval raise IntegrationBlowupError.
    """
    if spec.true_p is None:
        raise ValueError(f"spec {spec.name!r} has no true coefficients to integrate")
    if init not in INITIAL_CONDITIONS:
        raise ValueError(f"unknown initial condition {init!r}; "
                         f"options: {', '.join(sorted(INITIAL_CONDITIONS))}")
    x_min, x_max, t_max = (float(v) for v in domain)
    if not (np.isfinite([x_min, x_max, t_max]).all() and x_max > x_min and t_max > 0):
        raise ValueError(f"bad domain {domain}")
    if n < 2 or m < 2:
        raise ValueError(f"need at least 2 grid points in x and t, got n={n}, m={m}")

    span = x_max - x_min
    x = x_min + span * np.arange(n) / n  # periodic: right endpoint excluded
    t = np.linspace(0.0, t_max, m)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=span / n)
    ik = 1j * k

    lin = np.zeros_like(ik)
    nonlinear: list[tuple[float, tuple[tuple[int, int], ...]]] = []
    for coef, tm in zip(spec.true_p, spec.terms):
        if len(tm.factors) == 1 and tm.factors[0][1] == 1:
            lin = lin + coef * ik ** tm.factors[0][0]
        else:
            nonlinear.append((float(coef), tm.factors))

    orders = sorted({order for _, factors in nonlinear for order, _ in factors})
    ik_pows = np.array([ik ** order for order in orders], complex).reshape(len(orders), k.size)
    # exp(-lin tau) is the conjugate of exp(lin tau) when lin is imaginary (KdV)
    imaginary = not lin.real.any()

    dealias = np.ones_like(k)
    dealias[(2 * k.size) // 3:] = 0.0

    # Work arrays of this generation. The right-hand side writes every ufunc
    # into them and calls the pocketfft gufuncs numpy.fft dispatches to, with
    # the factors numpy.fft passes (1/n back, 1 forward).
    neg_lin = -lin
    growth, spectra, total_hat = np.empty_like(lin), np.empty_like(ik_pows), np.empty_like(lin)
    derivs = np.empty((len(orders), n))  # one row per order in `orders`
    prod, powered, total = np.empty(n), np.empty(n), np.empty(n)
    products = [(coef, [(derivs[orders.index(order)], power) for order, power in factors])
                for coef, factors in nonlinear]
    rfft = _pocketfft_umath.rfft_n_even if n % 2 == 0 else _pocketfft_umath.rfft_n_odd

    def rhs(tau, v):
        nonlocal calls, mark  # calls since tau last passed mark
        calls, mark = (0, tau + dt / 100) if tau >= mark else (calls + 1, mark)
        if calls > RHS_CALL_BUDGET:
            raise IntegrationBlowupError(t[j] + tau, f"more than {RHS_CALL_BUDGET} right-hand-"
                                         "side evaluations in 1/100 of an output interval")
        np.exp(np.multiply(lin, tau, out=growth), out=growth)
        np.multiply(np.multiply(growth, v, out=spectra), ik_pows, out=spectra)
        _pocketfft_umath.irfft(spectra, 1.0 / n, out=derivs)
        total.fill(0.0)
        for coef, factors in products:
            prod.fill(coef)
            for d, power in factors:
                if power == 2:  # d ** 2 is np.square, which np.power need not match
                    d = np.square(d, out=powered)
                elif power != 1:
                    d = np.power(d, power, out=powered)
                np.multiply(prod, d, out=prod)
            np.add(total, prod, out=total)
        decay = np.conjugate(growth, out=growth) if imaginary else np.exp(
            np.multiply(neg_lin, tau, out=growth), out=growth)
        # a fresh array: DOP853 keeps the stage values it is handed
        return decay * np.multiply(dealias, rfft(total, 1.0, out=total_hat), out=total_hat)

    rng = np.random.default_rng(seed)
    u0 = INITIAL_CONDITIONS[init](x, x_min, x_max, rng)
    cols = [u0]
    u_hat = np.fft.rfft(u0)
    # Restart the integrating factor at every output column to keep the
    # exponents bounded by lin * dt. A failing run's overflow ends below as
    # IntegrationBlowupError (finiteness check, sol.success or the call
    # budget), so numpy need not warn on the way.
    with np.errstate(all="ignore"):
        for j in range(m - 1):
            dt = t[j + 1] - t[j]
            calls, mark = 0, 0.0
            sol = solve_ivp(rhs, (0.0, dt), u_hat.astype(complex), method="DOP853",
                            rtol=RTOL, atol=1e-10)
            if not sol.success:
                raise IntegrationBlowupError(t[j + 1], sol.message)
            u_hat = np.exp(lin * dt) * sol.y[:, -1]
            u = np.fft.irfft(u_hat, n)
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOWUP_LIMIT:
                raise IntegrationBlowupError(t[j + 1])
            cols.append(u)

    return SnapshotMatrix.from_physical(np.column_stack(cols), x, t)
