"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` records the operation that produced it (parents + a backward
closure); calling ``backward()`` on a scalar replays the recorded graph in
reverse topological order and accumulates gradients into every tensor with
``requires_grad``. Eager execution, no compilation.

What the tape holds until backward is each node's output plus what its
closure saves: most primitives save only their operands, which are other
nodes' outputs; ``linear`` computes x @ w + b as one node, so no bare product
is kept; ``elu`` saves its output, from which its derivative follows; the
attention kernels take rows [n, d], split heads by strided views of those
rows, return the attended rows and save only their softmax weights, so no
head-split copy is kept; both run one core, ``_attend`` and its backward
``_attend_grad``, once per block of rows in ``band_attention``. A backward
hands an array over to ``_accum`` (``own=True``) only when it has just
computed it and holds it nowhere else; the first gradient of a tensor is
then that array itself, not a copy. Views of the incoming gradient (add,
reshape, transpose, concat, the broadcasts of sum and mean) are copied.

Precision belongs to the operands: a tensor keeps a floating array's
dtype, and every primitive computes in its operands' dtype, so a model runs
in the dtype of its parameters (``ParamStore(dtype)``) whatever else the
process holds. A plain number beside a tensor in ``add``, ``mul`` or ``div``
takes that tensor's dtype; any other non-floating input becomes float64.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from ..errors import NumericError, ShapeError

_GRAD_ENABLED = contextvars.ContextVar("dgsum_grad_enabled", default=True)
_SEQ = itertools.count()

MASK_FILL = -1e9  # additive mask value; exp() underflows to exactly 0.0


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference paths). The switch
    is a context variable, so it holds only in the thread or task that
    entered the block."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """n-d array plus gradient accumulator and recorded provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self._parents: tuple = ()
        self._backward = None
        self._seq = next(_SEQ)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse pass from a scalar. Each recorded op runs once and is then
        released (grad, closure and parents dropped): leaves keep ``.grad``,
        intermediates only ``.data``; a second pass through one raises."""
        if self.size != 1:
            raise ShapeError(f"backward: output must be scalar, got shape {self.shape}")
        if not np.all(np.isfinite(self.data)):
            raise NumericError("backward: loss is not finite")
        order = sorted(_reachable(self), key=lambda t: t._seq, reverse=True)
        _accum(self, np.ones_like(self.data))
        for i, node in enumerate(order):
            order[i] = None  # the list must not keep a spent node's arrays alive
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _released, ()


def _released(g):
    raise NumericError("backward: graph already released by an earlier backward()")


def _reachable(root: Tensor) -> list[Tensor]:
    out, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        stack.extend(t._parents)
    return out


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add ``g`` to ``t.grad``. A first gradient is 0.0 + g, the bits a
    zero-filled buffer would get, in one pass. With ``own`` the caller hands
    ``g`` over: if it has ``t``'s dtype and shape, that sum is written into
    ``g``, which becomes ``t.grad`` without a copy."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif own and g.dtype == t.data.dtype and g.shape == t.shape:
        t.grad = np.add(g, 0.0, out=g)
    else:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """``a`` and ``b`` as tensors; a plain number takes the dtype of the
    tensor beside it, so it does not widen that tensor's precision."""
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    elif isinstance(b, (int, float)) and isinstance(a, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return as_tensor(a), as_tensor(b)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# --- elementwise arithmetic (broadcasting) ---------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} + {b.shape}")

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} * {b.shape}")

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: cannot broadcast {a.shape} / {b.shape}")

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), backward)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    data = a.data ** p

    def backward(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    return _make(data, (a,), backward)


# --- linear algebra ---------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: cannot broadcast {a.shape} @ {b.shape}")

    def backward(g):
        _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape), own=True)
        _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape), own=True)

    return _make(data, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """x @ w + b as one node, for rows x [..., k], weights w [k, m] and an
    optional bias b [m]. The bias is added in place, so the bare product is
    never kept; the arithmetic is that of the matmul/add chain, bit for bit."""
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or (b is not None and b.shape != w.shape[1:]):
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {None if b is None else b.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data

    def backward(g):
        if b is not None:
            _accum(b, _unbroadcast(g, b.shape), own=True)
        _accum(x, g @ w.data.T, own=True)
        _accum(w, _unbroadcast(x.data.swapaxes(-1, -2) @ g, w.shape), own=True)

    return _make(data, (x, w) if b is None else (x, w, b), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes (reverse them by default), as a contiguous copy."""
    a = as_tensor(a)
    axes = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    if a.ndim < 2 or sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} for shape {a.shape}")
    data = np.transpose(a.data, axes).copy()

    def backward(g):
        _accum(a, np.transpose(g, np.argsort(axes)))

    return _make(data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {a.shape} -> {shape}")

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, (a,), backward)


# --- structure: concat / slice / gather -------------------------------------

def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]} along axis {axis}")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(data, tuple(ts), backward)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice_axis: [{start}:{stop}] out of range for {a.shape} axis {axis}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _make(data, (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """Select rows (axis 0) by an integer index array; used for embedding
    lookup, boundary extraction, and compressor selection."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim == 0:
        raise ShapeError(f"gather_rows: scalar input {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape}")
    data = a.data[idx]

    def backward(g):  # scatter through the gathered rows only
        rows, inv = np.unique(idx, return_inverse=True)
        part = np.zeros((rows.size,) + a.shape[1:], dtype=a.data.dtype)
        np.add.at(part, inv.reshape(idx.shape), g)
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[rows] += part

    return _make(data, (a,), backward)


embedding = gather_rows  # table [V, d] indexed by token ids


# --- reductions --------------------------------------------------------------

def sum_(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    kept = a.data.sum(axis=axis, keepdims=True)

    def backward(g):
        _accum(a, np.broadcast_to(g.reshape(kept.shape), a.shape))

    return _make(kept if keepdims else np.squeeze(kept, axis), (a,), backward)


def mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    kept = a.data.mean(axis=axis, keepdims=True)

    def backward(g):
        _accum(a, np.broadcast_to(g.reshape(kept.shape) / n, a.shape))

    return _make(kept if keepdims else np.squeeze(kept, axis), (a,), backward)


# --- nonlinearities -----------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0), own=True)

    return _make(data, (a,), backward)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    data = np.where(a.data > 0, a.data, slope * a.data)

    def backward(g):
        _accum(a, g * np.where(a.data > 0, 1.0, slope))

    return _make(data, (a,), backward)


def elu(a) -> Tensor:
    a = as_tensor(a)
    data = np.where(a.data > 0, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def backward(g):  # where a <= 0, data is expm1(a) and its derivative data + 1
        _accum(a, g * np.where(a.data > 0, 1.0, data + 1.0), own=True)

    return _make(data, (a,), backward)


def _softmax_rows(x) -> None:
    """In place, one softmax per row over the last axis of ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)


def _softmax_grad(g, w):
    """In place in ``g``: the gradient of softmax rows ``w`` from theirs, ``g``."""
    g -= (g * w).sum(axis=-1, keepdims=True)
    g *= w
    return g


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    data = a.data.copy()
    _softmax_rows(data)

    def backward(g):  # g is this node's own buffer, dropped after the call
        _accum(a, _softmax_grad(g, data), own=True)

    return _make(data, (a,), backward)


def _heads(x, n_heads: int, batch: tuple = ()):
    """Rows ``x`` [..., d] as heads [*batch, H, n, d/H], a strided view."""
    return x.reshape(*batch, -1, n_heads, x.shape[-1] // n_heads).swapaxes(-3, -2)


def _rows(x, shape):
    """Heads [..., H, n, dh] back as rows of ``shape``."""
    return x.swapaxes(-3, -2).reshape(shape)


def _attend(qh, kh, vh, scale, mask_add=None):
    """The softmax weights w = softmax(qh @ khᵀ * scale + mask_add) of head
    views [..., H, nq, dh] over [..., H, nk, dh], and the attended values w @ vh."""
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    if mask_add is not None:
        w += mask_add
    _softmax_rows(w)
    return w, w @ vh


def _attend_grad(gh, qh, kh, vh, w, scale):
    """dq, dkᵀ and dv of ``_attend`` in head layout, from the gradient ``gh``
    of its attended values and its weights ``w``; dkᵀ = qhᵀ @ dw comes as
    computed, [..., H, dh, nk]."""
    dv = w.swapaxes(-1, -2) @ gh
    dw = _softmax_grad(gh @ vh.swapaxes(-1, -2), w)
    dw *= scale
    return dw @ kh, qh.swapaxes(-1, -2) @ dw, dv


def attention(q, k, v, n_heads: int, mask_add: np.ndarray | None = None) -> Tensor:
    """Multi-head softmax(q @ kᵀ / sqrt(dh) + mask_add) @ v for query rows
    ``q`` [B·nq, d] and key and value rows ``k``, ``v`` [B, nk, d]; keys
    [nk, d], or a batch of 1, are shared by all query rows. Heads are strided
    views of the rows (dh = d / n_heads) and the attended values come back as
    rows [B·nq, d]. It saves only the weights [B, H, nq, nk]; the arithmetic
    is that of the matmul/mul/add/softmax/matmul chain over those views, so
    results are bit-identical to it."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    kb = k.shape[0] if k.ndim == 3 else 1
    if q.ndim != 2 or k.ndim not in (2, 3) or v.shape != k.shape or k.shape[-1] != q.shape[1] \
            or n_heads < 1 or q.shape[1] % n_heads or q.shape[0] % kb:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {n_heads} heads")
    qh, kh, vh = (_heads(x.data, n_heads, (kb,)) for x in (q, k, v))
    scale = qh.dtype.type(1.0 / np.sqrt(qh.shape[-1]))
    w, out = _attend(qh, kh, vh, scale, mask_add)

    def backward(g):
        dq, dkt, dv = _attend_grad(_heads(g, n_heads, (kb,)), qh, kh, vh, w, scale)
        for t, dt in ((v, dv), (q, dq), (k, dkt.swapaxes(-1, -2))):
            _accum(t, _rows(dt, t.shape), own=True)

    return _make(_rows(out, q.shape), (q, k, v), backward)


_BLOCK = 32  # query rows per dense block in band_attention


def band_attention(q, k, v, n_heads: int, window: int, glob) -> Tensor:
    """Sliding-window attention with global positions (Longformer's pattern)
    for query, key and value rows [n, d] in ``n_heads`` heads: row i attends
    to key j when |i - j| <= window or either is in ``glob``, which is
    ``attention`` under the encoder mask. Heads are strided views of the rows,
    and the attended values come back as rows [n, d].

    Each block of ``_BLOCK`` rows is one dense attention over a span of
    min(n, _BLOCK + 2 window) keys that holds its rows' windows, masked where
    |i - j| > window or j is in ``glob``, followed by the g ``glob`` keys. The
    ``glob`` rows are one dense attention over all n keys, which overwrites
    theirs. Only the weights are saved. Backward adds each block's gradients
    into buffers that become the gradients of q, k and v, with no copy."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    glob = np.unique(np.asarray(glob, dtype=np.intp))
    n, d = q.shape if q.ndim == 2 else (0, 0)
    if n < 1 or k.shape != q.shape or v.shape != q.shape or n_heads < 1 or d % n_heads \
            or window < 1 or (glob.size and (glob[0] < 0 or glob[-1] >= n)):
        raise ShapeError(f"band_attention: q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"{n_heads} heads, window {window}, global positions {glob.tolist()}")
    qh, kh, vh = (_heads(x.data, n_heads) for x in (q, k, v))
    scale = qh.dtype.type(1.0 / np.sqrt(qh.shape[-1]))
    span = min(n, _BLOCK + 2 * window)
    starts = [(i0, min(max(0, i0 - window), n - span)) for i0 in range(0, n, _BLOCK)]
    kb, vb = (np.concatenate([x[:, :span], x[:, glob]], axis=1) for x in (kh, vh))
    is_glob = np.isin(np.arange(n), glob)

    def keys(lo):  # a block's key and value heads: the span from lo, then the glob keys
        kb[:, :span], vb[:, :span] = kh[:, lo:lo + span], vh[:, lo:lo + span]
        return kb, vb

    out = np.empty((n, d), dtype=qh.dtype)
    oh, weights = _heads(out, n_heads), []
    for i0, lo in starts:
        i, j = np.arange(i0, min(n, i0 + _BLOCK))[:, None], np.arange(lo, lo + span)
        mask = np.zeros((len(i), span + glob.size), dtype=out.dtype)
        np.copyto(mask[:, :span], MASK_FILL, where=(np.abs(i - j) > window) | is_glob[j])
        wb, oh[:, i0:i0 + _BLOCK] = _attend(qh[:, i0:i0 + _BLOCK], *keys(lo), scale, mask)
        weights.append(wb)
    wg, oh[:, glob] = _attend(qh[:, glob], kh, vh, scale)

    def backward(g):
        gh = _heads(g, n_heads)
        dq, dv = np.empty_like(out), np.empty_like(out)  # rows [n, d]
        dqh, dvh = _heads(dq, n_heads), _heads(dv, n_heads)
        # the dense pass gives k's gradient buffer: kᵀ's heads [H, dh, n], as dkᵀ comes
        dq_glob, dkt, dvh[:] = _attend_grad(gh[:, glob], qh[:, glob], kh, vh, wg, scale)
        gh[:, glob] = 0.0  # the glob rows take their gradient from their dense pass alone
        dkt_glob, dv_glob = np.zeros_like(dkt[..., :glob.size]), np.zeros_like(vb[:, span:])
        for (i0, lo), wb in zip(starts, weights):
            dqh[:, i0:i0 + _BLOCK], bkt, bv = _attend_grad(  # each row is in one block
                gh[:, i0:i0 + _BLOCK], qh[:, i0:i0 + _BLOCK], *keys(lo), wb, scale)
            dkt[..., lo:lo + span] += bkt[..., :span]
            dvh[:, lo:lo + span] += bv[:, :span]
            dkt_glob += bkt[..., span:]
            dv_glob += bv[:, span:]
        dqh[:, glob] += dq_glob
        dkt[..., glob] += dkt_glob
        dvh[:, glob] += dv_glob
        for t, dt in ((q, dq), (k, dkt.reshape(d, n).T), (v, dv)):
            _accum(t, dt, own=True)

    return _make(out, (q, k, v), backward)


_MAX_CELLS = 1 << 20  # cells of one [edges, H, d_head] chunk in edge_attention


def _edge_sum(coef, vals, ix, dot=None):
    """Per node i, the sum over its edges k of coef[k] * vals[dst[k]] [n, H, dh];
    with ``dot``, also <dot[src[k]], vals[dst[k]]> per edge [E, H]. A chunk
    holds the whole nodes whose edges fit in ``_MAX_CELLS`` cells, or one node
    whose edges alone do not fit."""
    dst, indptr, n = ix.dst, ix.indptr, len(ix.indptr) - 1
    out = np.empty((n,) + vals.shape[1:], dtype=vals.dtype)
    dots = None if dot is None else np.empty_like(coef)
    step, i0 = max(1, _MAX_CELLS // int(np.prod(vals.shape[1:]))), 0
    while i0 < n:
        k0 = indptr[i0]
        i1 = max(i0 + 1, np.searchsorted(indptr, k0 + step, side="right") - 1)
        k1 = indptr[i1]
        x = np.take(vals, dst[k0:k1], axis=0)
        if dot is not None:
            rows = np.repeat(dot[i0:i1], np.diff(indptr[i0:i1 + 1]), axis=0)
            dots[k0:k1] = np.einsum("khd,khd->kh", x, rows)
        x *= coef[k0:k1, :, None]
        out[i0:i1] = np.add.reduceat(x, indptr[i0:i1] - k0, axis=0)
        i0 = i1
    return out, dots


def edge_attention(s, a, ix) -> Tensor:
    """All heads of one attention channel over ``ix``, a symmetric
    ``mgat.EdgeIndex``, for node rows s [n, H*dh] and a [H, 2*dh]; head h is the
    view s[:, h*dh:(h+1)*dh]. Per head, alpha is the softmax per src segment of
    leaky_relu((s[src] . a[h, :dh] + s[dst] . a[h, dh:]) * weight), slope 0.2,
    and the output rows are sum_k alpha_k s[dst_k]. It saves alpha [E, H];
    backward regathers s and scatters over dst by ``rev``."""
    s, a = as_tensor(s), as_tensor(a)
    n, heads, dh = len(s.data), len(a.data), a.shape[-1] // 2
    if s.shape != (n, heads * dh) or a.shape != (heads, 2 * dh) or len(ix.indptr) != n + 1:
        raise ShapeError(f"edge_attention: s {s.shape}, a {a.shape}, {len(ix.indptr) - 1} nodes")
    sh, a2 = s.data.reshape(n, heads, dh), a.data.reshape(heads, 2, dh)
    src, dst, rev, starts = ix.src, ix.dst, ix.rev, ix.indptr[:-1]
    ew = ix.weight.astype(s.data.dtype)[:, None]
    e = np.einsum("nhd,hcd->nhc", sh, a2)  # e_src, e_dst
    alpha = (e[src, :, 0] + e[dst, :, 1]) * ew
    alpha[alpha <= 0] *= 0.2
    alpha -= np.maximum.reduceat(alpha, starts, axis=0)[src]
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduceat(alpha, starts, axis=0)[src]

    def backward(g):
        ds, dalpha = _edge_sum(alpha[rev], g.reshape(sh.shape), ix, dot=sh)
        dalpha = dalpha[rev]  # <g[src], s[dst]> per edge
        dz = alpha * (dalpha - np.add.reduceat(alpha * dalpha, starts, axis=0)[src]) * ew
        dz[(e[src, :, 0] + e[dst, :, 1]) * ew <= 0] *= 0.2
        de = np.add.reduceat(np.stack([dz, dz[rev]], axis=2), starts, axis=0)  # d e_src, e_dst
        _accum(s, np.add(ds, np.einsum("nhc,hcd->nhd", de, a2), out=ds).reshape(s.shape), own=True)
        _accum(a, np.einsum("nhc,nhd->hcd", de, sh).reshape(a.shape), own=True)

    return _make(_edge_sum(alpha, sh, ix)[0].reshape(s.shape), (s, a), backward)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where ``mask`` is True by ``value`` (a constant)."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ShapeError(f"masked_fill: mask {mask.shape} vs data {a.shape}")
    data = np.where(mask, np.asarray(value, dtype=a.data.dtype), a.data)

    def backward(g):
        _accum(a, np.where(mask, 0.0, g))

    return _make(data, (a,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} vs features ({d},)")
    xm = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xm * xm).mean(axis=-1, keepdims=True)  # the steps of np.var, bit for bit
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xm * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        gx = g * gain.data
        gm = gx.mean(axis=-1, keepdims=True)
        gxh = (gx * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (gx - gm - xhat * gxh), own=True)

    return _make(data, (x, gain, bias), backward)


def dropout(a, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    a = as_tensor(a)
    if not train or p == 0.0:
        return a
    if not (0.0 <= p < 1.0):
        raise NumericError(f"dropout: p={p} outside [0, 1)")
    keep = (rng.random(a.shape) >= p).astype(a.data.dtype)
    scale = 1.0 / (1.0 - p)
    data = a.data * keep * scale

    def backward(g):
        _accum(a, g * keep * scale)

    return _make(data, (a,), backward)


def cosine_sim(u, v) -> Tensor:
    """Cosine similarity of two 1-d tensors; 0 (with zero gradient) when
    either norm is below 1e-12."""
    u, v = as_tensor(u), as_tensor(v)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine_sim: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u.data)
    nv = np.linalg.norm(v.data)
    if nu < 1e-12 or nv < 1e-12:
        return Tensor(np.zeros((), dtype=u.data.dtype))
    c = float(u.data @ v.data) / (nu * nv)

    def backward(g):
        _accum(u, g * (v.data / (nu * nv) - c * u.data / (nu * nu)))
        _accum(v, g * (u.data / (nu * nv) - c * v.data / (nv * nv)))

    return _make(np.asarray(c, dtype=u.data.dtype), (u, v), backward)


def cross_entropy_smoothed(logits, targets, smoothing: float = 0.0) -> Tensor:
    """Mean label-smoothed negative log-likelihood over the steps.

    The target distribution puts 1-smoothing on the gold class and spreads
    smoothing uniformly over the remaining V-1 classes.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    t, v = logits.shape
    if t == 0:
        raise ShapeError("cross_entropy: no steps")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz

    q = np.full((t, v), smoothing / (v - 1) if v > 1 else 0.0, dtype=logits.data.dtype)
    q[np.arange(t), targets] = 1.0 - smoothing
    loss = -(q * logp).sum() / t

    def backward(g):
        _accum(logits, g * (np.exp(logp) - q) / t, own=True)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)
