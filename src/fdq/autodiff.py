"""Dense tensors with tape-based reverse-mode differentiation.

Everything above this layer (recurrent nets, attention, regression heads)
is expressed in the primitives below.  Arrays are float32 by default; the
gradient checker temporarily switches the layer to float64 so that central
differences are not drowned in single-precision rounding noise.

Recording is opt-in.  An op executed outside a ``with Tape()`` block, as
every decoding op is, costs its numpy forward, one ``Tensor`` and one
closure that nothing records; what only the backward reads, such as
``concat``'s split offsets, is computed inside the vjp.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError

_DTYPE = np.float32
_ACTIVE_TAPE = None


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the dtype new tensors are created with."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = dtype
    try:
        yield
    finally:
        _DTYPE = prev


class Tensor:
    """A dense array plus identity; gradients are keyed by identity."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of executed primitives.

    Nodes are appended in execution order, so every node's inputs precede
    it and a single reverse sweep back-propagates correctly.
    """

    def __init__(self):
        self.nodes = []  # (output, inputs, vjp)

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None


def _record(out, inputs, vjp):
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.nodes.append((out, inputs, vjp))


class Gradients:
    """Gradient arrays keyed by tensor identity.

    A stored array may be one a vjp also handed elsewhere; nothing may
    mutate it in place.
    """

    def __init__(self):
        self._store = {}  # id(tensor) -> (tensor, ndarray)

    def accumulate(self, tensor, grad):
        key = id(tensor)
        hit = self._store.get(key)
        if hit is None:
            self._store[key] = [tensor, grad]
        else:
            hit[1] = hit[1] + grad

    def get(self, tensor):
        hit = self._store.get(id(tensor))
        return None if hit is None else hit[1]



def backward(tape, loss):
    """Reverse sweep: gradients of a scalar loss w.r.t. every tensor on tape.

    A node whose output is a tuple of tensors gets one gradient per output,
    None where an output received none.  The tape is cleared afterwards so
    the same object can be reused.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads = Gradients()
    grads.accumulate(loss, np.ones_like(loss.data))
    for out, inputs, vjp in reversed(tape.nodes):
        if type(out) is tuple:
            g = tuple(grads.get(o) for o in out)
            if all(gi is None for gi in g):
                continue
        else:
            g = grads.get(out)
            if g is None:
                continue
        for inp, ig in zip(inputs, vjp(g)):
            if ig is not None:
                grads.accumulate(inp, ig)
    tape.nodes.clear()
    return grads


def _unbroadcast(grad, shape):
    """Sum gradient over axes introduced or stretched by broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def sub(a, b):
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))
    return out


def mul(a, b):
    out = Tensor(a.data * b.data)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    _record(out, (a, b), vjp)
    return out


def square(a):
    out = Tensor(a.data * a.data)
    _record(out, (a,), lambda g: (2.0 * a.data * g,))
    return out


def tanh(a):
    out = Tensor(np.tanh(a.data))
    _record(out, (a,), lambda g: ((1.0 - out.data * out.data) * g,))
    return out


def affine(w, b, x):
    """x @ w.T + b with w of shape [out, in]; x is [in] or [batch, in]."""
    if w.data.ndim != 2:
        raise DimensionError(f"weight must be 2-D, got {w.shape}")
    if x.data.shape[-1] != w.data.shape[1]:
        raise DimensionError(f"affine mismatch: weight {w.shape}, input {x.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise DimensionError(f"affine mismatch: weight {w.shape}, bias {b.shape}")
    out = Tensor(np.matmul(x.data, w.data.T) + b.data)

    def vjp(g):
        if x.data.ndim == 1:
            return np.outer(g, x.data), g, np.matmul(g, w.data)
        return np.matmul(g.T, x.data), g.sum(axis=0), np.matmul(g, w.data)

    _record(out, (w, b, x), vjp)
    return out


def concat(parts, axis=-1):
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))

    def vjp(g):
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    _record(out, tuple(parts), vjp)
    return out


def stack(parts, axis=0):
    out = Tensor(np.stack([p.data for p in parts], axis=axis))

    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    _record(out, tuple(parts), vjp)
    return out


def sum_all(a):
    out = Tensor(a.data.sum())
    _record(out, (a,), lambda g: (np.full_like(a.data, g),))
    return out


def rows(table, ids):
    """Select rows of an embedding table; ids is an int scalar or 1-D array."""
    idx = np.asarray(ids)
    out = Tensor(table.data[idx])

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    _record(out, (table,), vjp)
    return out


def softmax(a, mask=None):
    """Softmax along the last axis; positions with mask==0 get zero weight,
    and a mask of None, which pads nothing, is bitwise an all-ones mask."""
    if mask is None:
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = Tensor(e / e.sum(axis=-1, keepdims=True))
    else:
        mask = np.asarray(mask)
        neg = np.where(mask > 0, 0.0, -1e30).astype(a.data.dtype)
        shifted = a.data + neg
        shifted = shifted - shifted.max(axis=-1, keepdims=True)
        e = np.exp(shifted) * (mask > 0)
        out = Tensor(e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30))

    def vjp(g):
        y = out.data
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    _record(out, (a,), vjp)
    return out


def log_softmax(a):
    """Log-softmax along the last axis, never taped: decoding and scoring
    read log-probs, and training takes its loss from masked_xent_sum."""
    if _ACTIVE_TAPE is not None:
        raise ContractError("log_softmax has no vjp; use masked_xent_sum")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return Tensor(shifted - lse)


def masked_xent_sum(logits, targets, mask):
    """Summed cross-entropy over a batch of logit rows.

    logits [B,V], targets [B] int, mask [B] with 1 = counts toward the loss.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=logits.data.dtype)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(targets)), targets]
    out = Tensor(((lse - picked) * mask).sum())

    def vjp(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(len(targets)), targets] -= 1.0
        return (p * (mask * g)[:, None],)

    _record(out, (logits,), vjp)
    return out


def attn_scores(enc, h):
    """Batched dot-product scores: enc [B,T,H], h [B,H] -> [B,T]."""
    out = Tensor(np.einsum("bth,bh->bt", enc.data, h.data))

    def vjp(g):
        return (np.einsum("bt,bh->bth", g, h.data),
                np.einsum("bt,bth->bh", g, enc.data))

    _record(out, (enc, h), vjp)
    return out


def attn_context(weights, enc):
    """Weighted sum of encoder vectors: weights [B,T], enc [B,T,H] -> [B,H]."""
    out = Tensor(np.einsum("bt,bth->bh", weights.data, enc.data))

    def vjp(g):
        return (np.einsum("bh,bth->bt", g, enc.data),
                np.einsum("bt,bh->bth", weights.data, g))

    _record(out, (weights, enc), vjp)
    return out


# ---------------------------------------------------------------------------
# fused recurrent step
# ---------------------------------------------------------------------------

def lstm_step(params, x, h, c, mask=None):
    """One LSTM step as one tape node with the two outputs (h_new, c_new).

    Gates (i, f, g, o) lie along the 4H axis of w_ih [4H,D], w_hh [4H,H]
    and b [4H]; x, h, c are all 1-D or all [B,*].  A [B,1] mask blends each
    output to new*m + old*(1-m): rows where m is 0 hold their state."""
    w_ih, w_hh, b = params.w_ih, params.w_hh, params.b
    hidden = w_hh.data.shape[1]
    if h.data.shape[-1] != hidden or c.data.shape[-1] != hidden:
        raise DimensionError(
            f"state shape {h.shape}/{c.shape} incompatible with hidden size {hidden}")
    if x.data.shape[-1] != w_ih.data.shape[1]:
        raise DimensionError(f"input shape {x.shape} incompatible with w_ih {w_ih.shape}")
    xd, hd, cd = x.data, h.data, c.data
    gates = (np.matmul(xd, w_ih.data.T) + b.data) + np.matmul(hd, w_hh.data.T)
    # sigmoid in tanh form (no exp overflow), then tanh for the g gate
    act = 0.5 * (np.tanh(0.5 * gates) + 1.0)
    i, f, g, o = (act[..., k * hidden:(k + 1) * hidden] for k in range(4))
    g[...] = np.tanh(gates[..., 2 * hidden:3 * hidden])
    c_new = f * cd + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    if mask is not None:
        m = np.asarray(mask, dtype=h_new.dtype)
        keep = 1.0 - m
        h_new, c_new = h_new * m + hd * keep, c_new * m + cd * keep
    out = (Tensor(h_new), Tensor(c_new))

    def vjp(grads):
        # the textbook LSTM backward over the saved gates and tanh(c_new)
        gh, gc = (np.zeros_like(tc) if gr is None else gr for gr in grads)
        if mask is not None:
            (gh, hold_h), (gc, hold_c) = (gh * m, gh * keep), (gc * m, gc * keep)
        dc = gc + (1.0 - tc * tc) * (gh * o)
        d = act * (1.0 - act)
        d[..., 2 * hidden:3 * hidden] = 1.0 - g * g
        dg = d * np.concatenate([dc * g, dc * cd, dc * i, gh * tc], axis=-1)
        dg2 = dg.reshape(-1, 4 * hidden)  # a 1-D step as a one-row batch
        dw_ih = np.matmul(dg2.T, xd.reshape(len(dg2), -1))
        dw_hh = np.matmul(hd.reshape(len(dg2), -1).T, dg2).T
        dh, dc = np.matmul(dg, w_hh.data), dc * f
        if mask is not None:
            dh, dc = hold_h + dh, hold_c + dc
        return dw_ih, dw_hh, dg2.sum(axis=0), np.matmul(dg, w_ih.data), dh, dc

    _record(out, (w_ih, w_hh, b, x, h, c), vjp)
    return out


class LSTMParams:
    """Weights of one LSTM cell."""

    def __init__(self, w_ih, w_hh, b):
        self.w_ih = w_ih
        self.w_hh = w_hh
        self.b = b


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def fd_check(build, params, eps=1e-3):
    """Max relative disagreement between autodiff and central differences.

    ``build(params)`` must construct a scalar loss from the given parameter
    tensors.  The check runs the whole graph in float64: the point is to
    verify the chain rule, and single-precision rounding at eps=1e-3 would
    otherwise dominate the comparison.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    with precision(np.float64):
        p64 = [Tensor(p.data, dtype=np.float64) for p in params]
        tape = Tape()
        with tape:
            loss = build(p64)
        grads = backward(tape, loss)
        worst = 0.0
        for p in p64:
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = build(p64).item()
                flat[i] = keep - eps
                lo = build(p64).item()
                flat[i] = keep
                fd = (hi - lo) / (2.0 * eps)
                rel = abs(gflat[i] - fd) / (abs(gflat[i]) + abs(fd) + 1e-8)
                worst = max(worst, rel)
    return worst
