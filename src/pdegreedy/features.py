"""Feature library construction, coefficient solve, losses, error metric."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import qr_least_squares
from .siren import Jet


@dataclass(frozen=True)
class DomainScales:
    """Normalization factors: t' = (t - t_min)/s_t, x' = (x - x_mid)/s_x."""

    s_t: float
    s_x: float

    def __post_init__(self):
        if self.s_t <= 0 or self.s_x <= 0:
            raise ValueError(f"scales must be positive, got {self}")


@dataclass(frozen=True)
class FeatureTerm:
    """Product of spatial-derivative powers: prod (d^k u / dx^k) ** power."""

    factors: tuple[tuple[int, int], ...]  # ((derivative order, power), ...)
    label: str = ""

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a feature term needs at least one factor")
        for order, power in self.factors:
            if order < 0:
                raise ValueError(f"derivative order {order} must be >= 0")
            if power < 1:
                raise ValueError(f"power {power} must be >= 1")

    @property
    def max_order(self) -> int:
        return max(order for order, _ in self.factors)


def term(*factors) -> FeatureTerm:
    """Shorthand: term((0, 1), (1, 1)) is u * u_x, labelled "u*u_x"."""
    names = []
    for order, power in factors:
        base = "u" if order == 0 else "u_" + "x" * order
        names.append(base if power == 1 else f"{base}^{power}")
    return FeatureTerm(factors=tuple((int(o), int(p)) for o, p in factors),
                       label="*".join(names))


@dataclass(frozen=True)
class PdeSpec:
    """Named library of right-hand-side terms, with optional true coefficients."""

    name: str
    terms: tuple[FeatureTerm, ...]
    true_p: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.true_p is not None and len(self.true_p) != len(self.terms):
            raise ValueError(
                f"{len(self.true_p)} coefficients for {len(self.terms)} terms"
            )

    @property
    def max_x_order(self) -> int:
        return max(t.max_order for t in self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


@dataclass(frozen=True)
class Preset:
    """One PDE's settings for every stage: term library and truth, generator
    grid (n x m over x_min, x_max, t_max) and initial condition, the sweep's
    eps range and the training budget. The defaults run a custom spec."""

    spec: PdeSpec | None = None
    n: int = 256
    m: int = 101
    domain: tuple[float, float, float] = (-8.0, 8.0, 10.0)
    init: str = "gaussian"
    eps_range: tuple[float, float] = (1e-10, 1e-2)
    max_iter: int = 1000


PRESETS = {p.spec.name: p for p in (
    Preset(PdeSpec(name="allen-cahn", terms=(term((0, 1)), term((0, 3)), term((2, 1))),
                   true_p=(5.0, -5.0, 0.0001)),
           n=512, m=201, domain=(-1.0, 1.0, 1.0), init="cosine-bump",
           eps_range=(1e-13, 1e-4), max_iter=1500),
    Preset(PdeSpec(name="burgers", terms=(term((0, 1), (1, 1)), term((2, 1))),
                   true_p=(-1.0, 0.1)),
           max_iter=1500),  # grid, initial condition and eps range: the defaults
    Preset(PdeSpec(name="kdv", terms=(term((0, 1), (1, 1)), term((3, 1))),
                   true_p=(-6.0, -1.0)),
           n=512, m=201, domain=(-30.0, 30.0, 20.0), init="two-soliton"),
)}


def preset(name: str) -> Preset:
    """The named preset, or the defaults a custom spec runs with."""
    return PRESETS.get(name, Preset())


def get_pde_spec(name: str) -> PdeSpec:
    """The named preset's spec; an unknown name raises ValueError listing the presets."""
    if name not in PRESETS:
        raise ValueError(f"unknown PDE spec {name!r}; presets: {', '.join(sorted(PRESETS))}")
    return PRESETS[name].spec


def load_pde_spec(path) -> PdeSpec:
    """Custom spec from JSON: {"name": a plain file name, "terms": [[[order,
    power], ...], ...], "true_p": null or a list of finite numbers}. A
    malformed file raises ValueError naming it."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or not isinstance(raw.get("terms"), list) or not raw["terms"]:
            raise ValueError('spec needs a non-empty "terms" list')
        for i, factors in enumerate(raw["terms"]):
            if not (isinstance(factors, list) and factors
                    and all(isinstance(f, list) and len(f) == 2 for f in factors)):
                raise ValueError(f"term {i} must be a list of [order, power] pairs, "
                                 f"got {factors!r}")
        terms = tuple(term(*factors) for factors in raw["terms"])
        true_p = raw.get("true_p")
        if true_p is not None and not (isinstance(true_p, list) and all(
                type(v) in (int, float) and np.isfinite(float(v)) for v in true_p)):
            raise ValueError(f'"true_p" must be null or a list of finite numbers, '
                             f'got {true_p!r}')
        name = raw.get("name", "custom")  # names the output files, so no directories
        if not (isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name):
            raise ValueError(f'"name" must be a plain file name, got {name!r}')
        return PdeSpec(name=name, terms=terms, true_p=None if true_p is None else tuple(true_p))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# library matrix and solve

def _scaled_derivatives(jets: Jet, spec: PdeSpec, scales: DomainScales):
    """Physical-coordinate derivative columns d^k u/dx^k = jet_k / s_x^k."""
    if jets.max_x_order < spec.max_x_order:
        raise ValueError(
            f"spec {spec.name!r} needs x-derivatives up to order {spec.max_x_order}, "
            f"jets carry order {jets.max_x_order}"
        )
    cols = {}
    for order in {o for t in spec.terms for o, _ in t.factors}:
        cols[order] = jets.by_order(order) / scales.s_x ** order
    return cols


def build_theta(jets: Jet, spec: PdeSpec, scales: DomainScales) -> np.ndarray:
    """Row per sample, column per term, chain-rule corrected to physical x."""
    derivs = _scaled_derivatives(jets, spec, scales)
    n = jets.u.shape[0]
    theta = np.empty((n, len(spec.terms)))
    for j, t in enumerate(spec.terms):
        col = np.ones(n)
        for order, power in t.factors:
            col = col * derivs[order] ** power
        theta[:, j] = col
    return theta


def physical_u_t(jets: Jet, scales: DomainScales) -> np.ndarray:
    """Chain-rule corrected time derivative du/dt = jet.du_dt / s_t."""
    return jets.du_dt / scales.s_t


def solve_parameters(theta: np.ndarray, u_t: np.ndarray) -> np.ndarray:
    """Least-squares coefficients p minimizing ||theta p - u_t||_2."""
    return qr_least_squares(theta, u_t)


# ---------------------------------------------------------------------------
# losses

def mse_loss(u_samples, u_pred) -> float:
    u_samples = np.asarray(u_samples, dtype=float).reshape(-1)
    u_pred = np.asarray(u_pred, dtype=float).reshape(-1)
    if u_samples.size == 0:
        raise ValueError("empty batch")
    if u_samples.shape != u_pred.shape:
        raise ValueError(f"length mismatch: {u_samples.shape} vs {u_pred.shape}")
    return float(np.mean((u_samples - u_pred) ** 2))


def total_loss(mse: float, deri: float, mu1: float, mu2: float) -> float:
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not 0.0 < mu <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {mu}")
    return mu1 * mse + mu2 * deri


def relative_error(p_truth, p_est) -> np.ndarray:
    """|truth - est| / |truth| per coefficient; NaN where truth is zero."""
    p_truth = np.asarray(p_truth, dtype=float).reshape(-1)
    p_est = np.asarray(p_est, dtype=float).reshape(-1)
    if p_truth.shape != p_est.shape:
        raise ValueError(f"length mismatch: {p_truth.shape} vs {p_est.shape}")
    out = np.full(p_truth.shape, np.nan)
    nz = p_truth != 0.0
    out[nz] = np.abs(p_truth[nz] - p_est[nz]) / np.abs(p_truth[nz])
    return out


# ---------------------------------------------------------------------------
# loss cotangents for training (p held fixed during differentiation)

def composite_loss_and_bar(jets: Jet, u_data, theta, u_t, spec: PdeSpec,
                           scales: DomainScales, p: np.ndarray,
                           mu1: float, mu2: float):
    """Losses plus d(loss)/d(jet rows) for reverse accumulation.

    ``theta`` and ``u_t`` must come from the same jets (build_theta /
    physical_u_t). The coefficient vector p is treated as a constant;
    gradients flow through the network output, the time derivative,
    and every library column.
    """
    u_data = np.asarray(u_data, dtype=float).reshape(-1)
    u = jets.u
    n = u.shape[0]

    mse = mse_loss(u_data, u)
    resid = u_t - theta @ p
    deri = float(np.mean(resid ** 2))

    bar = np.zeros_like(jets.data)
    bar[0] += mu1 * (2.0 / n) * (u - u_data)

    # derivative loss: d/d(u_t) and d/d(theta columns)
    e_bar = mu2 * (2.0 / n) * resid
    bar[-1] = e_bar / scales.s_t
    derivs = _scaled_derivatives(jets, spec, scales)
    for j, t in enumerate(spec.terms):
        col_bar = -e_bar * p[j]
        for fi, (order, power) in enumerate(t.factors):
            partial = np.ones(n)
            for fj, (other_order, other_power) in enumerate(t.factors):
                d = derivs[other_order]
                if fj == fi:
                    partial = partial * power * d ** (power - 1)
                else:
                    partial = partial * d ** other_power
            bar[order] += col_bar * partial / scales.s_x ** order
    return mse, deri, Jet(bar)
