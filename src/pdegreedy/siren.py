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

The streams run at the dtype of their cache: float64 unless
``forward_jet_with_cache`` is given ``dtype=np.float32``, as training's
passes are. Inputs, weights as the kernel reads them (omega0 W, omega0 b)
and block cotangents take that dtype; the Jet, the per-block gradients
and their sum are float64 either way.

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
views of one flat buffer (each view starting on a 64-byte boundary) with
only what ``jet_backward`` reads: the input streams, layer 0's sine
streams, per further hidden layer its pre-activation streams (cos(a_0)
in the value slot) and its sine streams, and the output streams. The same flat buffer holds one work
buffer per stripe, for what no block needs once its pass is done: a
pre-activation stack and the scratch (a temporary and P_1..P_{K-1}).
Layer 0's pre-activation stack lives there: the input streams have two
columns, so ``jet_backward`` rebuilds it with the forward pass's GEMM,
then cos of its value slot, instead of keeping it per block. A cache
serves one ``jet_backward`` call per forward pass; that call works in the
cache's own buffers, turning each sine stack into its cotangents once the
stack has been read. Passing the cache back as ``out=`` lets the next
forward pass reuse its buffers, so a training loop allocates them once.
``forward_jet`` runs the same blocks without a cache: each stripe has its
work buffer, one sine stack and the input and output stacks, and every
layer of every block reuses them.
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


@dataclass(frozen=True)
class SirenNet:
    """Fully connected network, sine activations on hidden layers. ``params``
    holds every parameter in checkpoint order: per layer the (fan_out, fan_in)
    weights row-major, then the biases; ``weights``/``biases`` are views of it."""

    params: np.ndarray
    widths: tuple[int, ...]
    omega0: float

    def __post_init__(self):
        object.__setattr__(self, "widths", check_network(self.widths, self.omega0))
        _layer_views(self.params, self.widths)  # refuse a vector of the wrong size

    weights = property(lambda self: _layer_views(self.params, self.widths)[0])
    biases = property(lambda self: _layer_views(self.params, self.widths)[1])

    def copy(self) -> "SirenNet":
        return SirenNet(self.params.copy(), self.widths, self.omega0)


def _layer_views(flat: np.ndarray, widths) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per-layer (weights, biases) views of a vector in checkpoint order;
    ValueError unless the vector has one entry per parameter."""
    expected = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))
    if flat.shape != (expected,):
        raise ValueError(f"expected {expected} parameters for widths {list(widths)}, "
                         f"got shape {flat.shape}")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out])
        pos += fan_out
    return tuple(weights), tuple(biases)


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
    parts = []
    for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        if layer == 0:
            lim = 1.0 / fan_in
        else:
            lim = np.sqrt(6.0 / fan_in) / omega0
        parts += [rng.uniform(-lim, lim, size=fan_out * fan_in), np.zeros(fan_out)]
    return SirenNet(np.concatenate(parts), widths, float(omega0))


def forward(net: SirenNet, t, x):
    """Evaluate u = net(t, x); scalar or elementwise over equal-length arrays."""
    t_arr, x_arr, scalar = _broadcast_inputs(t, x)
    a = np.column_stack([t_arr, x_arr])
    *hidden, (w_out, b_out) = zip(net.weights, net.biases)
    for w, b in hidden:
        a = a @ w.T  # the layer's one buffer, computed in place from here
        a += b
        a *= net.omega0
        np.sin(a, out=a)
    u = a @ w_out.T
    u += b_out
    return float(u[0, 0]) if scalar else u[:, 0]


def forward_jet(net: SirenNet, t, x, max_x_order: int) -> Jet:
    """Exact jet (u, u_x, ..., d^K u/dx^K, u_t) at the given points; a
    scalar (t, x) gives a one-point jet.

    A forward-only pass over the blocks of ``forward_jet_with_cache``, so the
    same bytes, that keeps nothing for a backward pass: each stripe has its
    work buffer, one sine stack and the input and output stacks, and every
    layer of every block reuses them, so no cache of the whole batch is built.
    """
    t_arr, x_arr, bounds = _pass_inputs(t, x, max_x_order)
    stripes, n, hidden = min(len(bounds), jet_threads()), bounds[0][1], net.widths[1:-1]
    streams = max_x_order + 2
    sizes = _work_sizes(net.widths, n, max_x_order) + [
        streams * n * max(hidden, default=0), streams * n * 2, streams * n]
    flats = [_carve([(size,) for size in sizes], np.float64) for _ in range(stripes)]

    def buffers(i):  # block i runs on stripe i mod stripes
        pre, scratch, sine, c, out = flats[i % stripes]
        shape = (streams, bounds[i][1] - bounds[i][0])
        layers = [(_take(pre, shape + (w,)), _take(sine, shape + (w,))) for w in hidden]
        return _take(c, shape + (2,)), layers, _take(out, shape + (1,)), scratch

    return _forward_pass(net, t_arr, x_arr, max_x_order, bounds, buffers, np.float64, stripes)


def forward_jet_with_cache(net: SirenNet, t, x, max_x_order: int, out=None, *,
                           dtype=np.float64):
    """Jet plus the recorded intermediates needed by jet_backward.

    Returns ``(Jet, cache)``; the cache holds one buffer list per sample
    block and serves one jet_backward call. ``dtype`` is the precision of
    the cache, so of the Taylor streams, the weights as the kernel reads
    them and the backward pass; the Jet is float64 either way. Passing an
    earlier cache as ``out`` reuses its buffers when the network widths,
    the number of points, the order, the dtype and the number of stripes
    match; otherwise a new cache is made.
    """
    t_arr, x_arr, bounds = _pass_inputs(t, x, max_x_order)
    shapes = [_cache_shapes(net.widths, hi - lo, max_x_order) for lo, hi in bounds]
    stripes = min(len(bounds), jet_threads())
    if (isinstance(out, _JetCache) and out[0][0].dtype == dtype and len(out.work) == stripes
            and [[b.shape for b in block] for block in out] == shapes):
        cache = out
    else:
        cache = _JetCache.allocate(
            shapes, _work_sizes(net.widths, bounds[0][1], max_x_order), stripes, dtype)
    cache.bounds, cache.armed = bounds, True

    def buffers(i):
        block, (pre, scratch) = cache[i], cache.work[i % stripes]
        return block[0], _hidden_stacks(block, pre), block[-1], scratch

    return _forward_pass(net, t_arr, x_arr, max_x_order, bounds, buffers, dtype, stripes), cache


# ---------------------------------------------------------------------------
# forward/backward internals

# Points per block. On a 2-core VM, 10 562 training points ran as fast at 256,
# 512 and 1024 on float32 stacks (medians 63.7 k, 63.8 k and 62.0 k sample-iters/s
# over 6 rounds, quartiles overlapping), as on float64 ones. Below 2 * 256 points
# every one of these sizes gives the same two blocks.
BLOCK = 512

_threads = None  # jet threads in this process; None: one per usable core
_pool = None     # (pid, ThreadPoolExecutor), made by the first pass that needs it


class _JetCache(list):
    """Buffers of one jet pass, one list per sample block: [input stack,
    layer 0's sine stack S, then per further hidden layer its
    pre-activation stack A and sine stack S, output stack], each at the
    block's size. ``work`` holds one [pre-activation, scratch] pair of flat
    buffers per stripe, block i using stripe i mod len(work)'s. ``bounds``
    holds the blocks' sample ranges; ``armed`` is set by a forward pass
    and cleared by the jet_backward call that uses it."""

    armed = False
    bounds: list[tuple[int, int]]
    work: list[list[np.ndarray]]

    @classmethod
    def allocate(cls, shapes, work_sizes, stripes: int, dtype) -> "_JetCache":
        """Views of one flat buffer: one per shape in ``shapes`` (a list per
        block), then ``stripes`` work buffers of ``work_sizes``, so a whole
        cache is one allocation and one free."""
        flat_shapes = [shape for block in shapes for shape in block]
        flat_shapes += [(size,) for size in work_sizes] * stripes
        views = iter(_carve(flat_shapes, dtype))
        cache = cls([[next(views) for _ in block] for block in shapes])
        cache.work = [[next(views) for _ in work_sizes] for _ in range(stripes)]
        return cache


def _carve(shapes, dtype) -> list[np.ndarray]:
    """Views of one new flat buffer, one per shape, in order, each starting
    on a 64-byte boundary. Packed end to end instead, the views of a
    float32 cache over 242 points made both jet passes about 9 % slower
    (2-core Xeon VM)."""
    step = 64 // np.dtype(dtype).itemsize
    flat = np.empty(sum(-(-math.prod(shape) // step) * step for shape in shapes) + step, dtype)
    views, pos = [], (-flat.ctypes.data // flat.itemsize) % step
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos:pos + size].reshape(shape))
        pos += -(-size // step) * step
    return views


def _take(flat: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) entries of ``flat`` as an array of ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


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


def _run_blocks(run, count: int, stripes: int) -> None:
    """``run(i)`` for every block i, with block i on stripe i mod ``stripes``:
    the calling thread takes stripe 0, pool threads the others. numpy's
    ufuncs and matmul release the GIL, so the stripes run on separate cores."""
    futures = [_executor().submit(_stripe, run, s, stripes, count) for s in range(1, stripes)]
    try:
        _stripe(run, 0, stripes, count)
    finally:
        wait(futures)  # the stripes write into buffers the caller owns
    for f in futures:
        f.result()


def _kernel_layers(net: SirenNet, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, biases) as the kernel reads them, in ``dtype``:
    times omega0 on hidden layers (a = omega0 (W c + b)), as stored on the
    linear output layer."""
    scales = [net.omega0] * (len(net.weights) - 1) + [1.0]
    return [(np.asarray(s * w, dtype), np.asarray(s * b, dtype))
            for s, w, b in zip(scales, net.weights, net.biases)]


def _cache_shapes(widths, n: int, order: int) -> list[tuple[int, ...]]:
    """A cached block's stacks over n points: input, layer 0's sine stack,
    (A, S) per further hidden layer, output."""
    streams = order + 2
    pairs = [(streams, n, width) for width in widths[1:-1] for _ in range(2)]  # (A, S) each
    return [(streams, n, widths[0])] + pairs[1:] + [(streams, n, widths[-1])]


def _work_sizes(widths, n: int, order: int) -> list[int]:
    """Flat sizes of a stripe's work buffer over blocks of at most n points:
    a pre-activation stack at the widest hidden width, then the scratch, a
    temporary and P_1..P_{K-1} (order (n, width) buffers)."""
    widest = max(widths[1:-1], default=0)
    return [(order + 2) * n * widest, order * n * widest]


def _hidden_stacks(block, pre) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each hidden layer's (pre-activation, sine) stacks of a cached block;
    layer 0's pre-activation is a view of the stripe's work buffer ``pre``."""
    sines = block[1:-1:2]
    pres = [_take(pre, sines[0].shape)] + block[2:-1:2] if sines else []
    return list(zip(pres, sines))


def _pass_inputs(t, x, order: int):
    """(t, x) as equal-length 1-d arrays and the sample blocks of a jet pass
    over them at x-order ``order``."""
    if order < 1:  # the input stack needs an x-stream slot
        raise ValueError(f"max_x_order must be >= 1, got {order}")
    t_arr, x_arr, _ = _broadcast_inputs(t, x)
    return t_arr, x_arr, _blocks(t_arr.shape[0])


def _forward_pass(net, t_arr, x_arr, order, bounds, buffers, dtype, stripes) -> Jet:
    """The jet over the sample blocks ``bounds`` at ``dtype``, block i
    computed in the buffers ``buffers(i)`` (_forward_block's first four
    arguments) on stripe i mod ``stripes``."""
    *hidden, (w_out, b_out) = _kernel_layers(net, dtype)
    factorials = _factorials(order)
    data = np.empty((order + 2, t_arr.shape[0]))

    def run(i):
        lo, hi = bounds[i]
        o = _forward_block(*buffers(i), hidden, w_out, b_out, t_arr[lo:hi], x_arr[lo:hi], order)
        # into a new array: the next pass through these buffers overwrites o
        np.multiply(o, factorials, out=data[:, lo:hi])

    _run_blocks(run, len(bounds), stripes)
    return Jet(data)


def _broadcast_inputs(t, x):
    scalar = np.isscalar(t) and np.isscalar(x)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t_arr.shape != x_arr.shape or t_arr.ndim != 1:
        raise ValueError("t and x must be scalars or equal-length 1-d arrays")
    return t_arr, x_arr, scalar


def _forward_block(c, layers, out, scratch, hidden, w_out, b_out, t, x, order):
    """One block's jet pass: ``c`` takes the input stack, ``layers`` holds
    each hidden layer's (pre-activation, sine) stacks, ``out`` takes the
    output stack and ``scratch`` is flat; ``hidden`` holds each hidden
    layer's (omega0 W, omega0 b). Returns the output streams."""
    n = t.shape[0]
    # c[k], k <= order: k-th Taylor coefficient in x; c[-1]: t tangent.
    c[...] = 0.0
    c[0, :, 0], c[0, :, 1] = t, x
    c[1, :, 1] = 1.0
    c[-1, :, 0] = 1.0
    for layer, ((w, b), (a, s)) in enumerate(zip(hidden, layers)):
        _affine(c, w, b, out=a)
        _sine_streams(a, s, _take(scratch, (order, n, w.shape[0])), order,
                      _top_stream(layer, order))
        c = s
    return _affine(c, w_out, b_out, out=out)[..., 0]


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


def jet_backward(net: SirenNet, cache, bar: Jet) -> np.ndarray:
    """Reverse accumulation from jet cotangents to the parameter gradient,
    one float64 vector laid out like ``net.params``.

    Runs per sample block in that block's buffers, at the cache's dtype:
    layer by layer, a sine stack is read for the weight gradient and the
    P_m coefficients, then overwritten by its cotangents. Layer 0's
    pre-activation stack is rebuilt from the cached input streams and the
    network's weights, so the network must be as the forward pass read it.
    Each block's gradient lands in float64, and the blocks' gradients are
    summed in block order. One call per forward pass.
    """
    if not getattr(cache, "armed", False):
        raise ValueError("spent cache: a forward_jet_with_cache cache serves "
                         "one jet_backward call")
    order, n = cache[0][0].shape[0] - 2, cache.bounds[-1][1]
    if bar.data.shape != (order + 2, n):
        raise ValueError(f"bar has shape {bar.data.shape}, but the cache was "
                         f"recorded at order {order} over {n} points")
    cache.armed = False

    kernel = _kernel_layers(net, cache[0][0].dtype)
    factorials = _factorials(order)
    rows = np.empty((len(cache), net.params.size))  # one gradient per block
    stripes = len(cache.work)

    def run(i):
        lo, hi = cache.bounds[i]
        _backward_block(cache[i], cache.work[i % stripes], kernel, bar.data[:, lo:hi],
                        factorials, order, _layer_views(rows[i], net.widths))

    _run_blocks(run, len(cache), stripes)
    grad = rows.sum(axis=0)  # numpy adds the rows one after another, in block order
    grad[:-(kernel[-1][0].size + net.widths[-1])] *= net.omega0  # all but the output layer
    return grad


def _backward_block(block, work, kernel, bar, factorials, order, out):
    """One block's reverse pass in its buffers ``block`` and its stripe's
    ``work``, from the block's jet cotangents ``bar``; ``kernel`` holds each
    layer's (weights, biases) times its scale. Writes the block's weight and
    bias gradients, without the scale, into the (weights, biases) views
    ``out``."""
    pre, scratch = work
    layers = _hidden_stacks(block, pre)
    inputs = [block[0]] + [s for _, s in layers]  # each layer's input stack
    n = block[0].shape[1]
    bs = block[-1]  # the output stack turns into its cotangents
    np.multiply(bar, factorials, out=bs[..., 0])
    d_weights, d_biases = out
    for layer in range(len(kernel) - 1, -1, -1):
        # bs: cotangents of this layer's pre-activation streams, c: its input
        c = inputs[layer]
        flat, c_flat = bs.reshape(-1, bs.shape[-1]), c.reshape(-1, c.shape[-1])
        np.matmul(flat.T, c_flat, out=d_weights[layer])
        bs[0].sum(axis=0, out=d_biases[layer])
        if layer == 0:
            break
        a, w = layers[layer - 1][0], kernel[layer][0]
        if layer == 1:  # layer 0's pre-activation, as _forward_block left it
            _affine(inputs[0], *kernel[0], out=a)
            np.cos(a[0], out=a[0])
        tmp = _take(scratch, (n, w.shape[1]))
        _sine_reverse_coeffs(a, c, order, _top_stream(layer - 1, order), tmp)
        if layer == len(kernel) - 1:  # one output: the product is an outer product
            # at numpy's default ufunc buffer the broadcast multiply allocates
            # 8192 items per input on every call; a buffer of a few rows
            # lets it run unbuffered (within errstate, which restores it)
            with np.errstate():
                np.setbufsize(128)
                np.multiply(flat, w, out=c_flat)
        else:
            np.matmul(flat, w, out=c_flat)
        _sine_cotangents(c, a, order, tmp)
        bs = c


# ---------------------------------------------------------------------------
# checkpoint format: "siren <omega0> <w0> <w1> ..." header, then
# SirenNet.params one per line (%.17g, exact float64 round trip).

def save_checkpoint(net: SirenNet, path) -> None:
    header = "siren %.17g %s" % (net.omega0, " ".join(map(str, net.widths)))
    np.savetxt(path, net.params, fmt="%.17g", header=header, comments="")


def load_checkpoint(path) -> SirenNet:
    """The network saved at ``path``; ValueError naming the path unless the
    file is a whole checkpoint."""
    with open(path) as fh:
        header, *lines = fh.read().split("\n")
    words = header.split()
    if len(words) < 4 or words[0] != "siren" or lines[-1:] != [""]:
        raise ValueError(f"{path}: not a whole siren checkpoint")
    try:
        return SirenNet(np.array([float(v) for v in lines if v.strip()]),
                        tuple(int(w) for w in words[2:]), float(words[1]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
