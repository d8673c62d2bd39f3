"""SGD and Adam with global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, TrainingDivergenceError


class OptimState:
    """Optimizer state, bound to one parameter list by its first step.

    That step copies the parameters into one flat buffer and rebinds each
    Tensor.data to a view of it; the gathered gradients, the Adam moments
    m, v and the scratch a step writes its temporaries to are flat buffers
    of the same layout, so a step allocates no array.
    """

    def __init__(self, algorithm="adam", lr=1e-3, clip_norm=5.0,
                 betas=(0.9, 0.999), eps=1e-8):
        if algorithm not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer algorithm: {algorithm!r}")
        self.algorithm = algorithm
        self.lr = lr
        self.clip_norm = clip_norm
        self.betas = betas
        self.eps = eps
        self.step = 0
        self._params = None

    def _bind(self, params):
        if self._params is None:
            self._params = list(params)
            self._flat = np.concatenate([p.data.ravel() for p in params])
            self._grad, self._m, self._v = np.zeros((3,) + self._flat.shape,
                                                    self._flat.dtype)
            # float64 g * g is read before the temporaries t1, t2 reuse its bytes
            scratch = np.zeros(2 * self._flat.nbytes, np.uint8)
            self._sq = scratch.view(np.float64)[:self._flat.size]
            self._t1, self._t2 = scratch.view(self._flat.dtype).reshape(2, -1)
            cuts = np.cumsum([p.data.size for p in params])[:-1]
            self._grad_views, self._sq_views = (
                [g.reshape(p.shape) for p, g in zip(params, np.split(a, cuts))]
                for a in (self._grad, self._sq))
            for p, flat in zip(params, np.split(self._flat, cuts)):
                p.data = flat.reshape(p.shape)
        elif list(map(id, params)) != list(map(id, self._params)):
            raise ContractError("optimizer state bound to other parameters")


def optimizer_step(opt, params, grads, norm=1.0):
    """Update params in place from a Gradients object divided by norm."""
    opt._bind(params)
    for p, view in zip(params, opt._grad_views):
        g = grads.get(p)
        view[...] = 0.0 if g is None else g
    g, t1, t2 = opt._grad, opt._t1, opt._t2
    g /= norm
    # a float32 gradient squared in float64 cannot overflow, so the sum is
    # finite exactly when every gradient is
    np.multiply(g, g, out=opt._sq, dtype=np.float64)
    norm = sum(float(view.sum()) for view in opt._sq_views) ** 0.5
    if not np.isfinite(norm):
        raise TrainingDivergenceError("non-finite gradient encountered")
    if opt.clip_norm is not None and 0 < opt.clip_norm < norm:
        g *= opt.clip_norm / norm  # the global-norm clip
    opt.step += 1
    if opt.algorithm == "sgd":
        opt._flat -= np.multiply(g, opt.lr, out=t1)
        return
    b1, b2 = opt.betas
    bias1, bias2 = 1.0 - b1 ** opt.step, 1.0 - b2 ** opt.step
    m, v = opt._m, opt._v
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=t1)
    v *= b2
    v += np.multiply(np.multiply(g, 1.0 - b2, out=t1), g, out=t1)
    # lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.multiply(np.divide(m, bias1, out=t1), opt.lr, out=t1)
    np.sqrt(np.divide(v, bias2, out=t2), out=t2)
    t2 += opt.eps
    opt._flat -= np.divide(t1, t2, out=t1)
