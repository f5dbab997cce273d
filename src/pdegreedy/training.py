"""Training loop: Adam with a cyclic learning rate over full-batch jets."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .features import (DomainScales, PdeSpec, build_theta, composite_loss_and_bar,
                       physical_u_t, solve_parameters, total_loss)
from .linalg import RankDeficiencyError
from .sampling import SampleSet
from .siren import (DEFAULT_OMEGA0, DEFAULT_WIDTHS, SirenNet, check_network,
                    forward_jet_with_cache, jet_backward)

DIVERGENCE_LIMIT = 1e8
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5        # the schedule spans 0.1x to 10x of it
    step_size_up: int = 1000
    mu1: float = 1.0
    mu2: float = 1.0
    max_iter: int = 1000
    seed: int = 0
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.step_size_up < 1:
            raise ValueError(f"step_size_up must be >= 1, got {self.step_size_up}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("mu1", "mu2"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        object.__setattr__(self, "widths", check_network(self.widths, self.omega0))

    @property
    def lr_bounds(self) -> tuple[float, float]:
        """Lower and upper end of the cyclic schedule."""
        return 0.1 * self.learning_rate, 10.0 * self.learning_rate


@dataclass
class TrainResult:
    p_trajectory: np.ndarray   # (iterations, n_terms)
    loss_history: np.ndarray   # (iterations, 3): mse, deri, total
    lr_history: np.ndarray     # (iterations,)
    wall_time: float
    outcome: str = "ok"        # ok | diverged | rank_deficient | nonfinite_grad, or error
    error: str | None = None   # what ended the run early (or train raised); None when ok

    @property
    def diverged(self) -> bool:
        return self.outcome == "diverged"

    @property
    def final_p(self) -> np.ndarray:
        """The last completed iteration's coefficients; NaN if none completed."""
        return (self.p_trajectory[-1] if len(self.p_trajectory)
                else np.full(self.p_trajectory.shape[1], np.nan))

    @property
    def iterations(self) -> int:
        return len(self.p_trajectory)


def cyclic_lr(iteration: int, cfg: TrainConfig) -> float:
    """Triangular wave between the cfg.lr_bounds, half-period step_size_up."""
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    base, top = cfg.lr_bounds
    cycle = np.floor(1.0 + iteration / (2.0 * cfg.step_size_up))
    pos = np.abs(iteration / cfg.step_size_up - 2.0 * cycle + 1.0)
    return float(base + (top - base) * max(0.0, 1.0 - pos))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]  # buffers for the update's intermediate terms
    step: int = 0

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params),
                   scratch=(np.empty_like(params), np.empty_like(params)))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update of the parameter vector, in place,
    with the state's scratch buffers for the intermediate terms. A non-finite
    gradient raises FloatingPointError before the parameters or the state change."""
    # min and max propagate NaN
    if not (np.isfinite(grads.min()) and np.isfinite(grads.max())):
        raise FloatingPointError(f"non-finite gradient at adam step {state.step + 1}")
    state.step += 1
    correction1 = 1.0 - BETA1 ** state.step
    correction2 = 1.0 - BETA2 ** state.step
    m, v, (step, denom) = state.m, state.v, state.scratch
    m *= BETA1
    np.multiply(1.0 - BETA1, grads, out=step)
    m += step
    v *= BETA2
    np.multiply(1.0 - BETA2, grads, out=step)
    step *= grads
    v += step
    # params -= lr * (m / correction1) / (sqrt(v / correction2) + EPS)
    np.divide(m, correction1, out=step)
    step *= lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    params -= step


def train(net: SirenNet, samples: SampleSet, spec: PdeSpec, scales: DomainScales,
          cfg: TrainConfig) -> TrainResult:
    """Fit the network to the samples and recover the coefficient vector.

    Each iteration evaluates exact jets on the batch, assembles the
    feature library and the time derivative, recovers p by the QR solve
    (held constant while differentiating), and takes one Adam step on the
    weighted sum of the data-fit and residual losses. The network is
    updated in place. The jet passes run on float32 Taylor streams; the
    jets they return, the library, the solve, the losses, the gradient
    and Adam are float64.

    The loss diverging (its row kept), a rank loss in the solve or a
    non-finite gradient ends the run with the rows so far; ``outcome``
    says which. A set with fewer samples than terms raises ValueError.
    """
    if len(samples) < len(spec.terms):
        raise ValueError(f"{len(samples)} samples for {len(spec.terms)} terms: "
                         "need at least one sample per term")
    order = max(1, spec.max_x_order)  # the jet's input stack needs its x slot
    t, x, u_data = samples.t_norm, samples.x_norm, samples.u

    state = AdamState.like(net.params)

    p_rows, loss_rows, lrs = [], [], []
    outcome, error = "ok", None
    cache = None  # one float32 jet workspace, reused by every iteration
    started = time.perf_counter()
    for it in range(cfg.max_iter):
        jets, cache = forward_jet_with_cache(net, t, x, max_x_order=order, out=cache,
                                             dtype=np.float32)
        theta = build_theta(jets, spec, scales)
        u_t = physical_u_t(jets, scales)
        try:
            p_vec = solve_parameters(theta, u_t)
        except RankDeficiencyError as exc:
            outcome, error = "rank_deficient", f"{type(exc).__name__}: {exc}"
            break
        mse, deri, bar = composite_loss_and_bar(
            jets, u_data, theta, u_t, spec, scales, p_vec, cfg.mu1, cfg.mu2)
        total = total_loss(mse, deri, cfg.mu1, cfg.mu2)

        lr = cyclic_lr(it, cfg)
        p_rows.append(p_vec)
        loss_rows.append((mse, deri, total))
        lrs.append(lr)
        if not np.isfinite(total) or abs(total) > DIVERGENCE_LIMIT:
            outcome, error = "diverged", "diverged"
            break

        grads = jet_backward(net, cache, bar)
        try:
            adam_step(net.params, grads, state, lr)
        except FloatingPointError as exc:
            outcome, error = "nonfinite_grad", f"{type(exc).__name__}: {exc}"
            break

    return TrainResult(
        wall_time=time.perf_counter() - started,
        p_trajectory=np.array(p_rows).reshape(-1, len(spec.terms)),
        loss_history=np.array(loss_rows).reshape(-1, 3),
        lr_history=np.array(lrs),
        outcome=outcome, error=error,
    )


# ---------------------------------------------------------------------------
# result export

def write_trajectory_csv(result: TrainResult, path) -> None:
    n_terms = result.p_trajectory.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "lr", "mse", "deri", "total"]
                        + [f"p{i + 1}" for i in range(n_terms)])
        for i in range(result.iterations):
            writer.writerow(
                [i, "%.17g" % result.lr_history[i]]
                + ["%.17g" % v for v in result.loss_history[i]]
                + ["%.17g" % v for v in result.p_trajectory[i]])
