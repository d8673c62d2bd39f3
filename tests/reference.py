"""Slow or separate references the library's paths are checked against:
the width-1 replay behind batched log p(Y|X) scores, the search's
ranking as a lexsort, a rollout action
drawn after a from-scratch prefix replay, a forced prefix replayed as a
search root, the length protocol as its own loop over positions, the
partial-backward scorer that re-encodes every candidate prefix, and the
unfused LSTM step (with its matmul and the constant multiply of its
hold-state blend) and per-tensor optimizer (with its global-norm clip)
behind the fused training kernels, and the teacher-forced decoder states
the Q heads' training examples are read from."""

import numpy as np

from fdq import autodiff as ad
from fdq import decode
from fdq.autodiff import Tensor, _record, _unbroadcast
from fdq.data import BOS, EOS, PAD, SequencePair
from fdq.errors import SearchSpaceError, TrainingDivergenceError
from fdq.seq2seq import batch_logprobs


def step_logprobs(model, src, tgt):
    """Per-step log p(y_t | X, y_{<t}) along a complete target, from one
    encode and one width-1 decode_step per token; sum() them in order for
    log p(Y|X)."""
    ctx, state = model.encode(src)
    out, prev = [], BOS
    for tok in tgt:
        logprobs, state = model.decode_step(state, prev, ctx)
        out.append(float(logprobs[tok]))
        prev = tok
    return out


def forced_states(model, batch):
    """Teacher-forced decoder states [B, T, H], untaped; slots as in
    Seq2Seq.forced."""
    return np.stack([h.data for _, _, h in model.forced(batch)], axis=1)


def sampled_action(model, src, prefix, seed):
    """The token a rollout samples after prefix: replay BOS + prefix by
    width-1 decode_steps, then draw once under default_rng(seed) with PAD
    and BOS barred."""
    ctx, state = model.encode(src)
    logprobs, state = model.decode_step(state, BOS, ctx)
    for tok in prefix:
        logprobs, state = model.decode_step(state, tok, ctx)
    probs = np.exp(logprobs.astype(np.float64))
    probs[PAD] = probs[BOS] = 0.0
    probs /= probs.sum()
    return int(np.random.default_rng(seed).choice(model.tgt_vocab, p=probs))


def replayed_root(model, src, prefix):
    """The one-row search root after BOS + a forced content prefix, as the
    engine once built it: width-1 decode_steps, with the forced tokens'
    log-probs summed into cum one float at a time."""
    ctx, state = model.encode(src)
    logprobs, state = model.decode_step(state, BOS, ctx)
    cum = 0.0
    for tok in prefix:
        cum += float(logprobs[tok])
        logprobs, state = model.decode_step(state, tok, ctx)
    return decode._Beam([tuple(prefix)], np.array([cum]), np.zeros(1), state,
                        logprobs[None], None)


def lexsort_ranked(scores, limit=None):
    """Engine.ranked as one lexsort on (-combined, parent row, y)."""
    _, _, combined, ids, _ = scores
    rows = np.repeat(np.arange(combined.shape[0]), len(ids))
    ys = np.tile(ids, combined.shape[0])
    pick = np.lexsort((ys, rows, -combined[:, ids].ravel()))[:limit]
    return rows[pick], ys[pick]


def length_forced_select(model, regressor, src, length, config):
    """The length protocol as a loop of its own; returns the hypothesis
    and whether it was admitted at L+1 (False: it fell back to the first
    step that finished anything; None: the unmasked arm, which is plain
    beam search under the length scorer)."""
    config.validate()
    scorer = (decode.LengthScorer(regressor, length)
              if regressor is not None else None)
    if not config.mask_eos:
        return decode.guided_beam_search(model, scorer, src,
                                         config)[0], None
    cap = config.cap if config.cap is not None else model.max_len
    cap = max(cap, length + 1)
    eng = decode.Engine(model, scorer, src, config)
    live = eng.root
    for pos in range(1, cap + 2):
        if live is None:
            break
        scores = eng.expand(live, allow_content=pos <= cap,
                            allow_eos=pos > length,
                            limit=None if pos == length + 1 else config.beam)
        if pos == length + 1:
            admitted = decode._admitted_eos(live, scores, config.beam)
            if admitted:
                return min(admitted, key=lambda h: (-h.logp, h.tokens)), True
        live, finished = eng.settle(live, scores,
                                    eng.ranked(scores, config.beam))
        if finished:
            return min(finished, key=lambda h: (-h.combined, h.tokens)), False
    raise SearchSpaceError("length-forced decoding exhausted its cap")


class ReencodingBackwardScorer:
    """The partial-backward scorer with no rows: every step scores each
    content candidate's whole prefix afresh, as the pair (prefix + y,
    src + EOS), through batch_logprobs under the candidates' bucket model.
    EOS keeps the row's admitted qterm.  It has no ceiling, so it is asked
    for every candidate: the full scoring the carried scorer's two-phase
    steps must agree with."""

    ceiling = None

    def __init__(self, ensemble):
        self.ensemble = ensemble

    def score_candidates(self, beam, ctx, cand):
        t = len(beam.tokens[0])
        tgt = [*ctx.src, EOS]
        parents, ys = np.divmod(cand, ctx.owner.tgt_vocab)
        go = ys != EOS
        model = self.ensemble.nearest_model(t + 1)
        pairs = [SequencePair(list(beam.tokens[b]) + [y], tgt)
                 for b, y in zip(parents[go].tolist(), ys[go].tolist())]
        out = np.empty(len(cand), dtype=np.float64)
        out[go] = batch_logprobs(model, pairs)
        out[~go] = beam.qterm[parents[~go]] if t else decode.NEG_SENTINEL
        return out, None


# -- the unfused training path the fused kernels are checked against ----------

def sigmoid(a):
    # tanh form avoids exp overflow for large negative inputs
    out = Tensor(0.5 * (np.tanh(0.5 * a.data) + 1.0))
    _record(out, (a,), lambda g: (out.data * (1.0 - out.data) * g,))
    return out


def mul_const(a, c):
    """Multiply by a constant scalar or array (no gradient flows into c)."""
    c = np.asarray(c, dtype=a.data.dtype)
    out = Tensor(a.data * c)
    _record(out, (a,), lambda g: (_unbroadcast(g * c, a.shape),))
    return out


def matmul(a, b):
    out = Tensor(np.matmul(a.data, b.data))

    def vjp(g):
        av, bv = a.data, b.data
        if av.ndim == 1 and bv.ndim == 1:  # dot product, g scalar
            return g * bv, g * av
        if av.ndim == 1:  # (k,) @ (k,n) -> (n,)
            return np.matmul(bv, g), np.outer(av, g)
        if bv.ndim == 1:  # (m,k) @ (k,) -> (m,)
            return np.outer(g, bv), np.matmul(av.T, g)
        return np.matmul(g, bv.T), np.matmul(av.T, g)

    _record(out, (a, b), vjp)
    return out


def transpose(a):
    out = Tensor(a.data.T)
    _record(out, (a,), lambda g: (g.T,))
    return out


def slice_last(a, lo, hi):
    """Slice [lo:hi] along the last axis."""
    out = Tensor(a.data[..., lo:hi])

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi] = g
        return (full,)

    _record(out, (a,), vjp)
    return out


def lstm_step(params, x, h, c, mask=None):
    """The LSTM step composed of primitives: 17 tape nodes, and 6 more for
    the hold-state blend new*m + old*(1-m) when a mask is given."""
    w_ih, w_hh, b = params.w_ih, params.w_hh, params.b
    hidden = w_hh.data.shape[1]
    gates = ad.add(ad.affine(w_ih, b, x), matmul(h, transpose(w_hh)))
    i = sigmoid(slice_last(gates, 0, hidden))
    f = sigmoid(slice_last(gates, hidden, 2 * hidden))
    g = ad.tanh(slice_last(gates, 2 * hidden, 3 * hidden))
    o = sigmoid(slice_last(gates, 3 * hidden, 4 * hidden))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    if mask is None:
        return h_new, c_new
    return (ad.add(mul_const(h_new, mask), mul_const(h, 1.0 - mask)),
            ad.add(mul_const(c_new, mask), mul_const(c, 1.0 - mask)))


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


class PerTensorOptim:
    """Adam as one update per tensor, with its moments keyed by
    tensor identity; step() divides each gradient by norm first, as the
    training loop did before the flat update."""

    def __init__(self, lr=1e-3, clip_norm=5.0, betas=(0.9, 0.999), eps=1e-8):
        self.lr, self.clip_norm = lr, clip_norm
        self.betas, self.eps = betas, eps
        self.t = 0
        self.m, self.v = {}, {}
        self.factors = []

    def step(self, params, grads, norm=1.0):
        garrs = []
        for p in params:
            g = grads.get(p)
            g = np.zeros_like(p.data) if g is None else g / norm
            if not np.all(np.isfinite(g)):
                raise TrainingDivergenceError("non-finite gradient encountered")
            garrs.append(np.asarray(g, dtype=p.data.dtype))
        self.factors.append(clip_by_global_norm(garrs, self.clip_norm))
        self.t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, g in zip(params, garrs):
            m = self.m.setdefault(id(p), np.zeros_like(p.data))
            v = self.v.setdefault(id(p), np.zeros_like(p.data))
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
