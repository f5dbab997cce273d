"""Sine-activation MLP with exact input derivatives and parameter gradients.

The network maps (t, x) to a scalar. Derivatives with respect to the
inputs are obtained by propagating truncated power-series coefficients
in x (orders 0..K, K = max_x_order >= 1) together with a first-order t
tangent through every layer; sine derivatives are closed-form, so the
resulting jet is exact to machine precision.

Each layer works on one stacked ``(K + 2, n, width)`` array: slots
0..K hold the x-Taylor streams, the last slot the t tangent. A layer is
one GEMM over all streams, then sin and cos of the value stream once,
then the Taylor coefficients of sin(a) by the product recurrence
s_k = sum_j (j/k) a_j cos_{k-j}.

Parameter gradients of any scalar loss over a batch of jets come from
reverse accumulation over the same streams.

Both passes run over contiguous blocks of about ``BLOCK`` points (at
least two blocks once n >= 2), so each block's stacks stay in cache
instead of streaming from memory. The Jet still covers the whole batch;
the backward pass takes each block's slice of the jet cotangents and sums
the blocks' gradients in block order. Blocks are striped over one thread
per usable core, the calling thread taking the first stripe; numpy's
ufuncs and matmul release the GIL. numpy's BLAS pool reads one thread
whenever a pass runs (``linalg`` sets it at import), so the stripes have
the cores to themselves, every block computes the same bytes on any
thread and output does not depend on the core count.

The cache of ``forward_jet_with_cache`` holds, per block, a list of
ndarrays: the input streams, per hidden layer its pre-activation streams
(cos(a_0) in the value slot) and its sine streams, the output streams and
one scratch buffer. A cache serves one ``jet_backward`` call per forward
pass; that call works in the cache's own buffers, turning each sine stack
into its cotangents once the stack has been read. Passing the cache back
as ``out=`` lets the next forward pass reuse its buffers, so a training
loop allocates them once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .linalg import blas_threads

DEFAULT_WIDTHS = (2, 128, 128, 128, 1)
DEFAULT_OMEGA0 = 30.0


@dataclass
class SirenNet:
    """Fully connected network, sine activations on hidden layers."""

    weights: list[np.ndarray]  # layer l: (fan_out, fan_in)
    biases: list[np.ndarray]   # layer l: (fan_out,)
    omega0: float

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "SirenNet":
        return SirenNet(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            omega0=self.omega0,
        )


@dataclass
class ParamGrad:
    """One entry per network parameter, same shapes as SirenNet."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]


@dataclass
class Jet:
    """Value and input derivatives of the network over a batch of n points.

    ``data`` has shape ``(K + 2, n)``: row k <= K holds d^k u / dx^k with
    the factorial applied, the last row du/dt. Derivatives refer to the
    network's own (normalized) inputs.
    """

    data: np.ndarray

    @property
    def max_x_order(self) -> int:
        return self.data.shape[0] - 2

    @property
    def u(self) -> np.ndarray:
        return self.data[0]

    @property
    def du_dt(self) -> np.ndarray:
        return self.data[-1]

    def by_order(self, k: int) -> np.ndarray:
        """Spatial derivative of order k (order 0 is the value itself)."""
        if not 0 <= k <= self.max_x_order:
            raise ValueError(f"x-derivative order {k} outside 0..{self.max_x_order}")
        return self.data[k]


def check_network(widths, omega0: float) -> tuple[int, ...]:
    """The layer widths as ints; ValueError unless widths and omega0 make a net."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ValueError("need at least an input and an output width")
    if widths[0] != 2:
        raise ValueError(f"network takes the two inputs (t, x), got width {widths[0]}")
    if widths[-1] != 1:
        raise ValueError(f"network emits one output, got width {widths[-1]}")
    if min(widths) < 1:
        raise ValueError(f"every width must be >= 1, got {widths}")
    if not (math.isfinite(omega0) and omega0 > 0.0):
        raise ValueError(f"omega0 must be finite and > 0, got {omega0}")
    return widths


def init_siren(widths, omega0: float = DEFAULT_OMEGA0, seed: int = 0) -> SirenNet:
    """Initialize with the standard sine-network weight ranges.

    First layer weights are uniform on +-1/fan_in, deeper layers on
    +-sqrt(6/fan_in)/omega0; biases start at zero. Deterministic per seed.
    """
    widths = check_network(widths, omega0)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        if layer == 0:
            lim = 1.0 / fan_in
        else:
            lim = np.sqrt(6.0 / fan_in) / omega0
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return SirenNet(weights=weights, biases=biases, omega0=float(omega0))


def forward(net: SirenNet, t, x):
    """Evaluate u = net(t, x); scalar or elementwise over equal-length arrays."""
    t_arr, x_arr, scalar = _broadcast_inputs(t, x)
    a = np.column_stack([t_arr, x_arr])
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.sin(net.omega0 * (a @ w.T + b))
    out = (a @ net.weights[-1].T + net.biases[-1])[:, 0]
    return float(out[0]) if scalar else out


def forward_jet(net: SirenNet, t, x, max_x_order: int = 3) -> Jet:
    """Exact jet (u, u_x, ..., d^K u/dx^K, u_t) at the given points; a
    scalar (t, x) gives a one-point jet."""
    return forward_jet_with_cache(net, t, x, max_x_order)[0]


def forward_jet_with_cache(net: SirenNet, t, x, max_x_order: int = 3, out=None):
    """Jet plus the recorded intermediates needed by jet_backward.

    Returns ``(Jet, cache)``; the cache holds one buffer list per sample
    block and serves one jet_backward call. Passing an earlier cache as
    ``out`` reuses its buffers when the network widths, the number of
    points and the order match; otherwise a new cache is made.
    """
    order = max_x_order
    if order < 1:  # the input stack needs an x-stream slot
        raise ValueError(f"max_x_order must be >= 1, got {order}")
    t_arr, x_arr, _ = _broadcast_inputs(t, x)
    bounds = _blocks(t_arr.shape[0])

    shapes = [_cache_shapes(net.widths, hi - lo, order) for lo, hi in bounds]
    if isinstance(out, _JetCache) and [[b.shape for b in block] for block in out] == shapes:
        cache = out
    else:
        cache = _JetCache([np.empty(shape) for shape in block] for block in shapes)
    cache.bounds, cache.armed = bounds, True

    hidden = [(net.omega0 * w, net.omega0 * b)  # a = omega0 (W c + b)
              for w, b in zip(net.weights[:-1], net.biases[:-1])]
    factorials = _factorials(order)
    data = np.empty((order + 2, t_arr.shape[0]))

    def run(i):
        lo, hi = bounds[i]
        o = _forward_block(cache[i], hidden, net.weights[-1], net.biases[-1],
                           t_arr[lo:hi], x_arr[lo:hi], order)
        # into a new array: the next pass through this cache overwrites o
        np.multiply(o, factorials, out=data[:, lo:hi])

    _run_blocks(run, len(bounds))
    return Jet(data), cache


# ---------------------------------------------------------------------------
# forward/backward internals

BLOCK = 512  # points per block; on a 2-core VM kdv-large ran as fast at 256 and 1024

_threads = None  # jet threads in this process; None: one per usable core
_pool = None     # (pid, ThreadPoolExecutor), made by the first pass that needs it


class _JetCache(list):
    """Buffers of one jet pass, one list per sample block: [input stack,
    then per hidden layer its pre-activation stack A and sine stack S,
    output stack, flat scratch], each at the block's size. ``bounds``
    holds the blocks' sample ranges; ``armed`` is set by a forward pass
    and cleared by the jet_backward call that uses it."""

    armed = False
    bounds: list[tuple[int, int]]


def _blocks(n: int) -> list[tuple[int, int]]:
    """Contiguous sample ranges of a pass over n points: max(2, ceil(n /
    BLOCK)) blocks of one size, the last one possibly shorter. One point
    (or none) is one block."""
    size = max(1, math.ceil(n / max(2, math.ceil(n / BLOCK))))
    return [(lo, min(lo + size, n)) for lo in range(0, max(n, 1), size)]


def jet_threads() -> int:
    """Threads that share a pass's blocks: one per core this process may
    run on, or one where numpy's BLAS pool is not found and so may run
    threads of its own."""
    if blas_threads()["numpy"] is None:
        return 1
    if _threads is not None:
        return _threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def jets_on_calling_thread() -> None:
    """Process-pool initializer: every pass of this process runs its
    blocks on the calling thread, so N workers use N cores, not N times
    the core count. Output bytes do not depend on the thread count."""
    global _threads
    _threads = 1


def _executor() -> ThreadPoolExecutor:
    """This process's pool of jet_threads() - 1 workers for stripes 1..;
    stripes beyond that queue. A pool inherited through fork has no live
    threads, so it is made anew per process id."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(jet_threads() - 1,
                                                 thread_name_prefix="pdegreedy-jet"))
    return _pool[1]


def _stripe(run, first: int, step: int, count: int) -> None:
    for i in range(first, count, step):
        run(i)


def _run_blocks(run, count: int) -> None:
    """``run(i)`` for every block i, with block i on stripe i mod T of
    T = jet_threads() stripes: the calling thread takes stripe 0, pool
    threads the others. numpy's ufuncs and matmul release the GIL, so the
    stripes run on separate cores."""
    stripes = min(count, jet_threads())
    futures = [_executor().submit(_stripe, run, s, stripes, count) for s in range(1, stripes)]
    try:
        _stripe(run, 0, stripes, count)
    finally:
        wait(futures)  # the stripes write into buffers the caller owns
    for f in futures:
        f.result()


def _cache_shapes(widths, n: int, order: int) -> list[tuple[int, ...]]:
    streams, hidden = order + 2, widths[1:-1]
    shapes = [(streams, n, widths[0])]
    for width in hidden:
        shapes += [(streams, n, width)] * 2
    # scratch: the forward pass needs a temporary and P_1..P_{K-1}
    return shapes + [(streams, n, widths[-1]), (order * n * max(hidden, default=0),)]


def _scratch(cache, count: int, n: int, width: int) -> np.ndarray:
    """``count`` (n, width) views of the flat scratch, shared by layers of any width."""
    return cache[-1][:count * n * width].reshape(count, n, width)


def _broadcast_inputs(t, x):
    scalar = np.isscalar(t) and np.isscalar(x)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t_arr.shape != x_arr.shape or t_arr.ndim != 1:
        raise ValueError("t and x must be scalars or equal-length 1-d arrays")
    return t_arr, x_arr, scalar


def _forward_block(cache, hidden, w_out, b_out, t, x, order):
    """One block's jet pass into its buffers ``cache``; ``hidden`` holds
    each hidden layer's (omega0 W, omega0 b). Returns the output streams."""
    n = t.shape[0]
    # c[k], k <= order: k-th Taylor coefficient in x; c[-1]: t tangent.
    c = cache[0]
    c[...] = 0.0
    c[0, :, 0], c[0, :, 1] = t, x
    c[1, :, 1] = 1.0
    c[-1, :, 0] = 1.0
    for layer, (w, b) in enumerate(hidden):
        a, s = cache[1 + 2 * layer], cache[2 + 2 * layer]
        _affine(c, w, b, out=a)
        _sine_streams(a, s, _scratch(cache, order, n, w.shape[0]), order,
                      _top_stream(layer, order))
        c = s
    return _affine(c, w_out, b_out, out=cache[-2])[..., 0]


def _affine(c, w, b, out):
    """One GEMM for every stream: (S, n, fan_in) -> (S, n, fan_out) into
    ``out``; the bias enters the value stream only."""
    np.matmul(c.reshape(-1, c.shape[-1]), w.T, out=out.reshape(-1, out.shape[-1]))
    out[0] += b
    return out


def _neg_cos_coeff(a, s, m, top, tmp, out):
    """P_m = -(m-th x-Taylor coefficient of cos a) = (1/m) sum_j j a_j s_{m-j},
    from the pre-activation streams ``a`` and the sine streams ``s``; the
    sum skips a_j, j > top, which are zero. ``out`` may be a[m]: only
    a[1..m-1] are read after it is written."""
    np.multiply(a[m], s[0], out=out)
    for j in range(1, min(m, top + 1)):
        np.multiply(a[j], s[m - j], out=tmp)
        tmp *= j / m
        out += tmp
    return out


def _sine_streams(a, s, scratch, order, top):
    """Taylor streams of sin(a) into ``s``: s_k = sum_j (j/k) a_j cos_{k-j},
    with cos_m = -P_m and a_j = 0 for j > top. Overwrites the value slot
    a[0] with cos(a_0); ``scratch`` holds ``order`` (n, width) buffers."""
    np.sin(a[0], out=s[0])
    np.cos(a[0], out=a[0])
    np.multiply(a[1:], a[0], out=s[1:])  # the j = k terms, t tangent included
    tmp, neg_cos = scratch[0], scratch[1:]
    for k in range(2, order + 1):
        _neg_cos_coeff(a, s, k - 1, top, tmp, out=neg_cos[k - 2])
        for j in range(1, min(k, top + 1)):
            np.multiply(a[j], neg_cos[k - j - 1], out=tmp)
            tmp *= j / k
            s[k] -= tmp


def _sine_reverse_coeffs(a, s, order, top, tmp):
    """Last reads of the sine streams ``s``: P_m overwrites a[m], highest m
    first, and sin(a_0) a_t the t slot. Slot 0 keeps cos(a_0)."""
    for m in range(order, 0, -1):
        _neg_cos_coeff(a, s, m, top, tmp, out=a[m])
    np.multiply(s[0], a[-1], out=a[-1])


def _sine_cotangents(bs, a, order, tmp):
    """Turn cotangents of the sine streams into cotangents of the
    pre-activation streams, in place in ``bs``; ``a`` as left by
    _sine_reverse_coeffs.

    bar_a_j = cos bar_s_j - sum_{k>j} P_{k-j} bar_s_k, and bar_a_0 also
    gets -sin(a_0) a_t bar_s_t. Slots of ``bs`` update in stream order
    0..K, then t, so every update reads only higher slots, still unmodified.
    """
    cos = a[0]
    for j in range(order + 1):
        bs[j] *= cos
        for k in range(j + 1, order + 1):
            np.multiply(a[k - j], bs[k], out=tmp)
            bs[j] -= tmp
    np.multiply(a[-1], bs[-1], out=tmp)
    bs[0] -= tmp
    bs[-1] *= cos


def _factorials(order: int) -> np.ndarray:
    """Column that scales the output Taylor stack into Jet rows: k! on
    x-order k, 1 on the t tangent. Jet cotangents scale back by the same."""
    return np.array([math.factorial(k) for k in range(order + 1)] + [1],
                    dtype=float)[:, None]


def _top_stream(hidden_layer: int, order: int) -> int:
    """Highest nonzero x-stream of a hidden layer's pre-activation: the
    network input is linear in x, so layer 0 has streams 0, 1 only."""
    return 1 if hidden_layer == 0 else order


def jet_backward(net: SirenNet, cache, bar: Jet) -> ParamGrad:
    """Reverse accumulation from jet cotangents to parameter gradients.

    Runs per sample block in that block's buffers: layer by layer, a sine
    stack is read for the weight gradient and the P_m coefficients, then
    overwritten by its cotangents. The blocks' gradients are summed in
    block order. One call per forward pass.
    """
    if not getattr(cache, "armed", False):
        raise ValueError("spent cache: a forward_jet_with_cache cache serves "
                         "one jet_backward call")
    order, n = cache[0][0].shape[0] - 2, cache.bounds[-1][1]
    if bar.data.shape != (order + 2, n):
        raise ValueError(f"bar has shape {bar.data.shape}, but the cache was "
                         f"recorded at order {order} over {n} points")
    cache.armed = False

    # hidden layers: a = omega0 (W c + b); the output layer is linear
    scales = [net.omega0] * (len(net.weights) - 1) + [1.0]
    scaled = [s * w for s, w in zip(scales, net.weights)]
    factorials = _factorials(order)
    parts = [None] * len(cache)

    def run(i):
        lo, hi = cache.bounds[i]
        parts[i] = _backward_block(cache[i], scaled, bar.data[:, lo:hi], factorials, order)

    _run_blocks(run, len(cache))
    d_weights, d_biases = parts[0]
    for part_weights, part_biases in parts[1:]:
        for total, part in zip(d_weights + d_biases, part_weights + part_biases):
            total += part
    for layer, s in enumerate(scales):
        d_weights[layer] *= s
        d_biases[layer] *= s
    return ParamGrad(d_weights=d_weights, d_biases=d_biases)


def _backward_block(cache, scaled, bar, factorials, order):
    """One block's reverse pass in its buffers ``cache``, from the block's
    jet cotangents ``bar``; ``scaled`` holds each layer's weights times its
    scale. Returns the block's weight and bias gradients without the scale."""
    n = cache[0].shape[1]
    bs = cache[-2]  # the output stack turns into its cotangents
    np.multiply(bar, factorials, out=bs[..., 0])
    layers = len(scaled)
    d_weights, d_biases = [None] * layers, [None] * layers
    for layer in range(layers - 1, -1, -1):
        # bs: cotangents of this layer's pre-activation streams, c: its input
        c = cache[2 * layer]
        flat = bs.reshape(-1, bs.shape[-1])
        d_weights[layer] = flat.T @ c.reshape(-1, c.shape[-1])
        d_biases[layer] = bs[0].sum(axis=0)
        if layer == 0:
            break
        a, w = cache[2 * layer - 1], scaled[layer]
        tmp = _scratch(cache, 1, n, w.shape[1])[0]
        _sine_reverse_coeffs(a, c, order, _top_stream(layer - 1, order), tmp)
        np.matmul(flat, w, out=c.reshape(-1, c.shape[-1]))
        _sine_cotangents(c, a, order, tmp)
        bs = c
    return d_weights, d_biases


# ---------------------------------------------------------------------------
# checkpoint format: "siren <omega0> <w0> <w1> ..." header, then one
# parameter per line (%.17g, exact float64 round trip), weights row-major
# then bias, layer by layer.

def save_checkpoint(net: SirenNet, path) -> None:
    lines = ["siren %.17g %s" % (net.omega0, " ".join(str(w) for w in net.widths))]
    for w, b in zip(net.weights, net.biases):
        lines.extend("%.17g" % v for v in w.ravel())
        lines.extend("%.17g" % v for v in b)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> SirenNet:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "siren" or len(header) < 4:
            raise ValueError(f"{path}: not a siren checkpoint")
        omega0 = float(header[1])
        widths = [int(v) for v in header[2:]]
        flat = np.array([float(line) for line in fh if line.strip()])
    expected = sum((widths[i] + 1) * widths[i + 1] for i in range(len(widths) - 1))
    if flat.size != expected:
        raise ValueError(
            f"{path}: expected {expected} parameters for widths {widths}, got {flat.size}"
        )
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out])
        pos += fan_out
    return SirenNet(weights=weights, biases=biases, omega0=omega0)
