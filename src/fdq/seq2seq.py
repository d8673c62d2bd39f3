"""LSTM encoder-decoder with global attention and input feeding.

The attention path computes two separate attention vectors from the same
context/hidden concatenation: one feeds the output softmax, the other is
fed forward into the next decoder step.  They have their own parameter
sets; tying them is the baseline this design deliberately departs from.

Q estimators downstream consume the raw decoder LSTM state h_t (the state
after the decoder has consumed target token t), never the attention
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LSTMParams, Tape, Tensor, backward
from .checkpoint import Checkpointed
from .data import batch_iter, check_ids, check_pairs, make_batch
from .errors import ContractError, TrainingDivergenceError
from .optim import OptimState, optimizer_step
from .seeding import stream_key, substream

# fdqbench wraps these names in this module, so they stay bound here
from .checkpoint import load_tensors, save_tensors  # noqa: F401

INIT_RANGE = 0.08


@dataclass
class TrainSchedule:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0


class DecoderState:
    """Decoder recurrent state h, c, feed as [K,H] rows.

    h is the raw LSTM state the value estimators consume.
    """

    __slots__ = ("h", "c", "feed", "owner")

    def __init__(self, h, c, feed, owner):
        self.h = h
        self.c = c
        self.feed = feed
        self.owner = owner

    def take(self, rows):
        """The [K,H] state whose row k is row rows[k] of this one."""
        return DecoderState(self.h[rows], self.c[rows], self.feed[rows],
                            self.owner)


class EncoderContext:
    """Encoder outputs [1,S,H] of the one, unpadded source src."""

    __slots__ = ("enc", "owner", "src")

    def __init__(self, enc, owner, src):
        self.enc = enc
        self.owner = owner
        self.src = src


def init_params(shapes, params, rng):
    """Check named parameters against shapes, with no name left over; draw
    them from rng if absent."""
    if params is None:
        params = {name: Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))
                  for name, shape in shapes}
    extra = set(params).difference(name for name, _ in shapes)
    if extra:
        raise ContractError(f"unexpected parameters {sorted(extra)}")
    for name, shape in shapes:
        if params[name].shape != shape:
            raise ContractError(
                f"parameter {name}: shape {params[name].shape}, want {shape}")
    return params


def lstm_params(p, prefix):
    """The LSTMParams stored under prefix/w_ih, prefix/w_hh, prefix/b."""
    return LSTMParams(p[prefix + "/w_ih"], p[prefix + "/w_hh"],
                      p[prefix + "/b"])


def masked_lstm(table, lstm, ids, mask):
    """LSTM over [B,S] ids that holds its state wherever mask is 0 (mask
    None holds nowhere).

    Returns (steps, h, c): steps[t] is the state after position t, held
    where mask is 0 for attention to weight by zero; h, c are the last.
    """
    b = ids.shape[0]
    hidden = lstm.w_hh.shape[1]
    h = Tensor(np.zeros((b, hidden)))
    c = Tensor(np.zeros((b, hidden)))
    steps = []
    for t in range(ids.shape[1]):
        m = None if mask is None else mask[:, t:t + 1]
        h, c = ad.lstm_step(lstm, ad.rows(table, ids[:, t]), h, c, m)
        steps.append(h)
    return steps, h, c


def _param_shapes(vs, vt, hidden):
    # the att_* shapes come last: init draws in this order
    return [
        ("src_embed", (vs, hidden)),
        ("tgt_embed", (vt, hidden)),
        ("enc/w_ih", (4 * hidden, hidden)),
        ("enc/w_hh", (4 * hidden, hidden)),
        ("enc/b", (4 * hidden,)),
        ("dec/w_ih", (4 * hidden, 2 * hidden)),
        ("dec/w_hh", (4 * hidden, hidden)),
        ("dec/b", (4 * hidden,)),
        ("out/w", (vt, hidden)),
        ("out/b", (vt,)),
        ("att_soft/w", (hidden, 2 * hidden)),
        ("att_soft/b", (hidden,)),
        ("att_feed/w", (hidden, 2 * hidden)),
        ("att_feed/b", (hidden,)),
    ]


class Seq2Seq(Checkpointed):
    """Encoder-decoder model over token-id sequences."""

    TYPE_TAG = "seq2seq"

    def __init__(self, src_vocab, tgt_vocab, hidden=64, max_len=21, seed=0,
                 params=None):
        self.src_vocab = int(src_vocab)
        self.tgt_vocab = int(tgt_vocab)
        self.hidden = int(hidden)
        self.max_len = int(max_len)
        shapes = _param_shapes(self.src_vocab, self.tgt_vocab, self.hidden)
        params = init_params(shapes, params, substream(seed, "seq2seq-init"))
        if params["att_soft/w"] is params["att_feed/w"]:
            raise ContractError("attention parameter sets must not be aliased")
        self.p = params
        self.trained = False

    def meta(self):
        # slot 3 stays 1, so FDQ1 files keep six slots; from_named refuses
        # a file with 0 there (a decoder without attention)
        return [self.src_vocab, self.tgt_vocab, self.hidden, 1.0,
                self.max_len, 1.0 if self.trained else 0.0]

    @classmethod
    def from_meta(cls, meta, params):
        vs, vt, hidden, _, max_len, trained = meta
        model = cls(int(vs), int(vt), int(hidden), int(max_len),
                    params=params)
        model.trained = trained > 0.5
        return model

    # -- batched taped graph ------------------------------------------------

    def _encode_graph(self, src_ids, src_mask):
        """Encoder over [B,S] ids; returns (enc Tensor [B,S,H], h, c)."""
        steps, h, c = masked_lstm(self.p["src_embed"],
                                  lstm_params(self.p, "enc"), src_ids, src_mask)
        return ad.stack(steps, axis=1), h, c

    def _cell(self, x, feed, h, c):
        """The decoder LSTM's (h, c) on [B,*] x and feed."""
        return ad.lstm_step(lstm_params(self.p, "dec"),
                            ad.concat([x, feed], axis=-1), h, c)

    def _readout(self, enc, src_mask, h):
        """(logits, feed) of the cell's h: attention over enc (src_mask None:
        nothing padded) and the output layer."""
        scores = ad.attn_scores(enc, h)
        weights = ad.softmax(scores, src_mask)
        context = ad.attn_context(weights, enc)
        cat = ad.concat([context, h], axis=-1)
        soft = ad.tanh(ad.affine(self.p["att_soft/w"], self.p["att_soft/b"], cat))
        feed = ad.tanh(ad.affine(self.p["att_feed/w"], self.p["att_feed/b"], cat))
        return ad.affine(self.p["out/w"], self.p["out/b"], soft), feed

    def forced(self, batch):
        """Teacher-forced pass over a batch: yields (t, logits, h) per slot.

        Slot t has consumed batch.tgt_in[:, t] (BOS at t=0) and predicts
        batch.tgt_out[:, t]; batch.tgt_mask marks valid slots.
        """
        enc, h, c = self._encode_graph(batch.src, batch.src_mask)
        yield from self.decode_forced(enc, batch.src_mask, h, c, batch.tgt_in)

    def decode_forced(self, enc, src_mask, h, c, tgt_in):
        """The decoder fed the [B,T] ids tgt_in from the encoder's outputs
        enc and last state (h, c): yields (t, logits, h) per slot."""
        feed = Tensor(np.zeros((tgt_in.shape[0], self.hidden)))
        for t in range(tgt_in.shape[1]):
            h, c = self._cell(ad.rows(self.p["tgt_embed"], tgt_in[:, t]),
                              feed, h, c)
            logits, feed = self._readout(enc, src_mask, h)
            yield t, logits, h

    def mle_loss(self, batch):
        """Summed teacher-forced cross-entropy and the token count."""
        total = None
        for t, logits, _ in self.forced(batch):
            step = ad.masked_xent_sum(logits, batch.tgt_out[:, t],
                                      batch.tgt_mask[:, t])
            total = step if total is None else ad.add(total, step)
        return total, float(batch.tgt_mask.sum())

    # -- single-sequence inference -------------------------------------------

    def encode(self, src):
        """Encode one source; returns (EncoderContext, [1,H] DecoderState)."""
        check_ids(src, self.src_vocab, "source")
        enc, h, c = self._encode_graph(np.array([src], np.int64), None)
        return (EncoderContext(enc.data, self, tuple(src)),
                DecoderState(h.data, c.data, np.zeros_like(h.data), self))

    def _check_owner(self, obj):
        if obj.owner is not self:
            raise ContractError("state/context belongs to a different model")

    def advance(self, state, ctx, token_ids):
        """The decoder cell from a [1,H] or [K,H] state on each candidate id:
        [K,H] h, c, row k the h_t that consuming token_ids[k] gives, which the
        guided scorers read.  readout gives the rows' feed and logits."""
        self._check_owner(state)
        self._check_owner(ctx)
        ids = np.asarray(token_ids, dtype=np.int64)
        shape = (ids.shape[0], self.hidden)
        h, c, feed = (Tensor(a if a.shape == shape else
                             np.broadcast_to(a, shape))
                      for a in (state.h, state.c, state.feed))
        h, c = self._cell(ad.rows(self.p["tgt_embed"], ids), feed, h, c)
        return h.data, c.data

    def readout(self, h, ctx):
        """The [K,H] feed and [K,Vt] logits of the [K,H] cell states h:
        attention over ctx and the output layer."""
        self._check_owner(ctx)
        enc, shape = ctx.enc, (h.shape[0],) + ctx.enc.shape[1:]
        enc = enc if enc.shape == shape else np.broadcast_to(enc, shape)
        logits, feed = self._readout(Tensor(enc), None, Tensor(h))
        return feed.data, logits.data

    def decode_step(self, state, prev_token, ctx):
        """Feed one token to a [1,H] state; returns (log-probs [Vt], state)."""
        prev = int(prev_token)
        check_ids([prev], self.tgt_vocab, "previous token")
        h, c = self.advance(state, ctx, np.array([prev]))
        feed, logits = self.readout(h, ctx)
        logprobs = ad.log_softmax(Tensor(logits[0])).data
        return logprobs, DecoderState(h, c, feed, self)


def dataset_ce(model, corpus, batch_size=32):
    """Mean per-token cross-entropy over a corpus, untaped."""
    total, count = 0.0, 0.0
    for batch in batch_iter(corpus, batch_size):
        loss, tokens = model.mle_loss(batch)
        total += float(loss.data)
        count += tokens
    return total / max(count, 1.0)


def batch_logprobs(model, pairs):
    """log p(tgt|src) for each pair, EOS-terminated, from one padded pass.

    A pair's score matches a width-1 decode_step replay of it up to
    float32 batching noise (decode.BATCH_ATOL).
    """
    if not pairs:
        return np.zeros(0, dtype=np.float64)
    check_pairs(pairs, model.src_vocab, model.tgt_vocab)
    batch = make_batch(pairs)
    return forced_logprobs(model.forced(batch), batch.tgt_out, batch.tgt_mask)


def forced_logprobs(steps, tgt_out, tgt_mask):
    """Summed float64 log p of the [B,T] ids tgt_out where tgt_mask is set,
    from the slots of a teacher-forced pass: the library's one scorer of
    complete targets, for batch_logprobs and the partial-backward scorer."""
    out = np.zeros(tgt_out.shape[0], dtype=np.float64)
    rows = np.arange(tgt_out.shape[0])
    for t, logits, _ in steps:
        lp = ad.log_softmax(logits).data
        out += lp[rows, tgt_out[:, t]] * tgt_mask[:, t]
    return out


def fit(params, schedule, epoch_batches, loss_fn, metric, dev_metric=None,
        log=None):
    """The training loop every model shares; returns the per-epoch records.

    epoch_batches(seed) yields one epoch's batches.  loss_fn(batch) returns
    a summed loss Tensor and the count it sums over; the optimizer step
    divides the gradients by that count.  Each record holds
    train_<metric>, the summed loss over the summed count, and dev_<metric>
    from dev_metric() when given.
    """
    opt = OptimState(schedule.lr, schedule.clip_norm)
    history = []
    for epoch in range(schedule.epochs):
        epoch_seed = stream_key(schedule.seed, "epoch", epoch) % (2 ** 63)
        total, count = 0.0, 0.0
        for batch in epoch_batches(epoch_seed):
            with Tape() as tape:
                loss, norm = loss_fn(batch)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}")
            optimizer_step(opt, params, backward(tape, loss), norm)
            total += loss_val
            count += norm
        record = {"epoch": epoch, f"train_{metric}": total / max(count, 1.0)}
        if dev_metric is not None:
            record[f"dev_{metric}"] = dev_metric()
        history.append(record)
        if log is not None:
            log(record)
    return history


def train_mle(model, corpus, schedule, dev=None, log=None):
    """Teacher-forced MLE training; returns the per-epoch loss record."""
    if len(corpus.pairs) == 0:
        raise ContractError("cannot train on an empty corpus")

    def dev_ce():
        return dataset_ce(model, dev, schedule.batch_size)

    history = fit(model.params(), schedule,
                  lambda seed: batch_iter(corpus, schedule.batch_size, seed=seed),
                  model.mle_loss, "ce",
                  dev_metric=dev_ce if dev is not None else None, log=log)
    model.trained = True
    return history
