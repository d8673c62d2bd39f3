"""SGD and Adam with global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, TrainingDivergenceError


class OptimState:
    """Optimizer state, bound to one parameter list by its first step.

    That step copies the parameters into one flat buffer and rebinds each
    Tensor.data to a view of it; the gathered gradients and the Adam
    moments m, v are flat buffers of the same layout.
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
            cuts = np.cumsum([p.data.size for p in params])[:-1]
            self._grad_views = [g.reshape(p.shape) for p, g in
                                zip(params, np.split(self._grad, cuts))]
            for p, flat in zip(params, np.split(self._flat, cuts)):
                p.data = flat.reshape(p.shape)
        elif list(map(id, params)) != list(map(id, self._params)):
            raise ContractError("optimizer state bound to other parameters")


def clip_by_global_norm(grad_arrays, max_norm):
    """Scale gradients in place so their joint L2 norm is at most max_norm."""
    if max_norm is None or max_norm <= 0:
        return 1.0
    total = 0.0
    for g in grad_arrays:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = total ** 0.5
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for g in grad_arrays:
        g *= factor
    return factor


def optimizer_step(opt, params, grads, norm=1.0):
    """Update params in place from a Gradients object divided by norm."""
    opt._bind(params)
    for p, view in zip(params, opt._grad_views):
        g = grads.get(p)
        view[...] = 0.0 if g is None else g
    g = opt._grad
    g /= norm
    if not np.isfinite(g).all():
        raise TrainingDivergenceError("non-finite gradient encountered")
    clip_by_global_norm(opt._grad_views, opt.clip_norm)
    opt.step += 1
    if opt.algorithm == "sgd":
        opt._flat -= opt.lr * g
        return
    b1, b2 = opt.betas
    bias1, bias2 = 1.0 - b1 ** opt.step, 1.0 - b2 ** opt.step
    m, v = opt._m, opt._v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    opt._flat -= opt.lr * (m / bias1) / (np.sqrt(v / bias2) + opt.eps)
