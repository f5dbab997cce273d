"""Space-time snapshot matrices: load, save, subdivide, generate."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath

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
# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5). The tableau is
# scipy/integrate/_ivp/dop853_coefficients.py's, literal for literal; row 12
# of _A holds the weights B of the 8th-order solution.

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0])
_A = np.zeros((13, 12))
for _row, _entries in {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
}.items():
    _A[_row, list(_entries)] = list(_entries.values())
del _row, _entries
_B = _A[12]
# the 5th- and 3rd-order error estimators, over the 12 stages and f(t + h)
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]


class Integration(NamedTuple):
    y: np.ndarray  # the state where stepping ended
    nfev: int      # right-hand-side calls
    success: bool
    message: str


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


def solve_ivp(fun, t_bound, y, rtol, atol) -> Integration:
    """Integrate y' = fun(t, y) from t = 0 to t_bound > 0 with adaptive DOP853.

    Every operation is the one scipy's solve_ivp(method="DOP853") performs,
    in its order, so the end state and nfev match scipy's byte for byte. fun
    must return a new array: the stepper keeps f(t, y) from step to step.
    """
    f = fun(0.0, y)
    # the first step: Hairer, Norsett & Wanner's estimate with RMS norms
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound)

    t, nfev = 0.0, 2
    K = np.empty((13, y.size), dtype=y.dtype)  # the 12 stages, then f(t + h)
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Integration(y, nfev, False,
                                   "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** (-1 / 8))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            rejected = True
        t, y, f = t_new, y_new, f_new
    return Integration(y, nfev, True, "")


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
    DOP853 (solve_ivp above, scipy's steps byte for byte without importing
    scipy.integrate) on an integrating-factor transform that absorbs the
    linear single-derivative terms, so dispersive operators such as u_xxx do
    not constrain the step size. A right-hand-side call takes one batched inverse
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
            sol = solve_ivp(rhs, dt, u_hat, RTOL, 1e-10)
            if not sol.success:
                raise IntegrationBlowupError(t[j + 1], sol.message)
            u_hat = np.exp(lin * dt) * sol.y
            u = np.fft.irfft(u_hat, n)
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOWUP_LIMIT:
                raise IntegrationBlowupError(t[j + 1])
            cols.append(u)

    return SnapshotMatrix.from_physical(np.column_stack(cols), x, t)
