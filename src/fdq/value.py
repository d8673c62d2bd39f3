"""Future-outcome estimators Q and their training procedures.

Four estimators, one interface: given a partial hypothesis, estimate a
scalar property of the full sequence it will become.

* LengthRegressor       h_t -> remaining token count N - t
* BackwardRegressor     h_t -> log p(X|Y) of the full pair (option 1)
* PartialBackwardEnsemble  per-length-bucket seq2seq models scoring
                        p(X | y_{1:t}) directly (option 2)
* OutcomePredictor      (X, y_{1:t}) -> predicted task metric of the
                        finished sequence, fit on sampled rollouts

Regression heads train on teacher-forced decoder states over gold
targets; they never backpropagate into the sequence model.  The scorers
keep what they carry between steps, such as the partial-backward bucket
encoder over each prefix, in the beam's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpointed
from .data import (BOS, EOS, Corpus, SequencePair, batch_iter, check_ids,
                   is_ids, is_number, pad_ids, read_ndjson, write_ndjson)
from .decode import NEG_SENTINEL, DecodeConfig, Engine
from .errors import ConfigError, ContractError, DimensionError
from .metrics import rouge2, sentence_bleu
from .seeding import stream_key, substream
from .seq2seq import (Seq2Seq, batch_logprobs, fit, forced_logprobs,
                      init_params, lstm_params, masked_lstm, train_mle)

# fdqbench wraps these names in this module, so they stay bound here
from .autodiff import backward  # noqa: F401
from .checkpoint import load_tensors, save_tensors  # noqa: F401
from .optim import optimizer_step  # noqa: F401

DEFAULT_BUCKETS = ((1, 2), (3, 4), (5, 7), (8, 12), (13, None))

ROLLOUT_FIELDS = ("src", "prefix", "t", "completed", "q", "seed")
ROLLOUT_KINDS = (("src", is_ids), ("prefix", is_ids), ("completed", is_ids),
                 ("t", lambda v: type(v) is int),
                 ("seed", lambda v: type(v) is int), ("q", is_number))


def _require_trained(model, role):
    if not getattr(model, "trained", False):
        raise ContractError(f"{role} model has not been trained")


# -- shared MLP regression head over decoder states ---------------------------


class _MlpRegressor(Checkpointed):
    """Two tanh layers of width H and a scalar linear head."""

    def __init__(self, hidden, seed=0, params=None):
        self.hidden = int(hidden)
        shapes = (("l1/w", (self.hidden, self.hidden)),
                  ("l1/b", (self.hidden,)),
                  ("l2/w", (self.hidden, self.hidden)),
                  ("l2/b", (self.hidden,)),
                  ("out/w", (1, self.hidden)),
                  ("out/b", (1,)))
        self.p = init_params(shapes, params,
                             substream(seed, "value-init", self.TYPE_TAG))

    def _graph(self, x):
        """x Tensor [B,H] -> prediction Tensor [B,1]."""
        h1 = ad.tanh(ad.affine(self.p["l1/w"], self.p["l1/b"], x))
        h2 = ad.tanh(ad.affine(self.p["l2/w"], self.p["l2/b"], h1))
        return ad.affine(self.p["out/w"], self.p["out/b"], h2)

    def predict(self, h):
        """Batched inference: h [B,H] -> predictions [B], untaped."""
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[1] != self.hidden:
            raise DimensionError(
                f"states must be [B,{self.hidden}], got {h.shape}")
        return self._graph(Tensor(h)).data[:, 0].astype(np.float64)

    def meta(self):
        return [self.hidden]


class LengthRegressor(_MlpRegressor):
    """Predicts the count of tokens still to be generated from h_t."""

    TYPE_TAG = "length_q"


class BackwardRegressor(_MlpRegressor):
    """Predicts the full-pair backward log-probability from h_t."""

    TYPE_TAG = "backward_q1"


# -- training examples from teacher-forced passes ------------------------------


def _forced_examples(model, corpus, batch_size, label_fn):
    """(features, labels, index) over states h_t for t = 1..N of each pair,
    pair-major with t ascending.

    label_fn(i, t) maps arrays of pair positions (in corpus order) and
    steps to their regression targets; index rows are (i, t).
    """
    feats = [np.zeros((0, model.hidden), np.float32)]
    index = [np.zeros((0, 2), np.int64)]
    offset = 0
    for batch in batch_iter(corpus, batch_size):
        rows, t = np.nonzero(batch.tgt_mask[:, 1:])
        states = np.stack([h.data for _, _, h in model.forced(batch)], axis=1)
        feats.append(states[rows, t + 1])
        index.append(np.stack([rows + offset, t + 1], axis=1))
        offset += batch.src.shape[0]
    index = np.concatenate(index)
    labels = label_fn(index[:, 0], index[:, 1])
    return (np.concatenate(feats), np.asarray(labels, np.float64), index)


def length_examples(model, corpus, batch_size=32):
    """Features h_t with labels N - t for every pair and every t."""
    lengths = np.array([p.n for p in corpus.pairs], dtype=np.int64)
    return _forced_examples(model, corpus, batch_size,
                            lambda i, t: lengths[i] - t)


def backward_examples(forward, backward, corpus, batch_size=32):
    """Features h_t with the pair's full backward score as the label.

    The label is log p(X|Y) of the complete pair under the backward
    model, identical for every t of one pair; one batched pass over the
    swapped corpus scores every pair.
    """
    labels = batch_logprobs(backward, swap_corpus(corpus).pairs)
    return _forced_examples(forward, corpus, batch_size,
                            lambda i, t: labels[i])


def _fit_q(q, graph, labels, schedule):
    """Fit q by summed squared error of graph(rows), a [B,1] prediction
    Tensor for the given example rows, against labels[rows]; each epoch
    visits the rows in slices of a seeded permutation."""
    if len(labels) == 0:
        raise ContractError("no training examples for Q")
    size = schedule.batch_size

    def epoch(seed):
        order = np.random.default_rng(seed).permutation(len(labels))
        return [order[start:start + size]
                for start in range(0, len(labels), size)]

    def loss_fn(rows):
        err = ad.sub(graph(rows), Tensor(labels[rows][:, None]))
        return ad.sum_all(ad.square(err)), len(rows)

    fit(q.params(), schedule, epoch, loss_fn, "mse")


def mse(pred, labels):
    """Mean squared error of predictions against labels."""
    if len(labels) == 0:
        raise ContractError("empty evaluation set")
    return float(np.mean((pred - np.asarray(labels, np.float64)) ** 2))


def dev_report(pred, dev_labels, train_labels):
    """Dev-set mse and baseline_mse, the mse of always predicting the mean
    training label."""
    mean = np.full(len(dev_labels), float(np.mean(train_labels)))
    return {"mse": mse(pred, dev_labels),
            "baseline_mse": mse(mean, dev_labels)}


def _fit_regressor(reg, examples, corpus, schedule, dev=None):
    """MSE training of a head on the fixed features examples(corpus);
    given dev, the fitted head carries its dev_report."""
    feats, labels, _ = examples(corpus)
    _fit_q(reg, lambda rows: reg._graph(Tensor(feats[rows])), labels,
           schedule)
    if dev is not None:
        dev_feats, dev_labels, _ = examples(dev)
        reg.dev_report = dev_report(reg.predict(dev_feats), dev_labels, labels)
    return reg


def train_length_q(model, corpus, schedule, dev=None):
    """Fit a remaining-length head on teacher-forced states."""
    _require_trained(model, "forward")
    return _fit_regressor(
        LengthRegressor(model.hidden, seed=schedule.seed),
        lambda c: length_examples(model, c, schedule.batch_size),
        corpus, schedule, dev)


# -- backward-probability estimators -------------------------------------------


def swap_corpus(corpus):
    """Sources become targets and vice versa; EOS moves accordingly."""
    pairs = [SequencePair(list(p.tgt[:-1]), list(p.src) + [EOS])
             for p in corpus.pairs]
    return Corpus(pairs, corpus.tgt_vocab, corpus.src_vocab,
                  dict(corpus.provenance, swapped=True))


def train_backward_model(corpus, schedule, hidden=64, max_len=21):
    """A standard seq2seq fit on the swapped corpus, modelling p(X|Y)."""
    swapped = swap_corpus(corpus)
    model = Seq2Seq(len(corpus.tgt_vocab), len(corpus.src_vocab),
                    hidden=hidden, max_len=max_len, seed=schedule.seed)
    train_mle(model, swapped, schedule)
    return model


def train_backward_q_option1(forward, backward, corpus, schedule,
                             dev=None):
    """Fit h_t -> log p(X|Y) with the full-pair score as a constant label."""
    _require_trained(forward, "forward")
    _require_trained(backward, "backward")
    return _fit_regressor(
        BackwardRegressor(forward.hidden, seed=schedule.seed),
        lambda c: backward_examples(forward, backward, c, schedule.batch_size),
        corpus, schedule, dev)


def _check_buckets(buckets):
    if not buckets:
        raise ConfigError("bucket spec is empty")
    expect = 1
    for i, (lo, hi) in enumerate(buckets):
        if lo != expect:
            raise ConfigError(f"bucket {i} starts at {lo}, want {expect}")
        if i == len(buckets) - 1:
            if hi is not None:
                raise ConfigError("final bucket must be open-ended")
        elif hi is None or hi < lo:
            raise ConfigError(f"bucket {i} bound {hi} invalid")
        else:
            expect = hi + 1


def bucket_index(buckets, t):
    """The index of the bucket of t; checked buckets hold every t >= 1."""
    if t < 1:
        raise ConfigError(f"prefix length must be >= 1, got {t}")
    return next(i for i, (_, hi) in enumerate(buckets)
                if hi is None or t <= hi)


class PartialBackwardEnsemble(Checkpointed):
    """One backward seq2seq per prefix-length bucket.

    Each bucket model is trained with partial targets y_{1:t} as sources
    and the original source X as the target, so its sequence score is a
    direct estimate of the future backward probability.
    """

    TYPE_TAG = "backward_q2"

    def __init__(self, buckets, models):
        _check_buckets(tuple(buckets))
        if not models:
            raise ContractError("ensemble needs at least one bucket model")
        self.buckets = tuple(tuple(b) for b in buckets)
        self.models = dict(models)

    def nearest_model(self, t):
        """The model of the bucket owning length t, else of the closest
        populated bucket (the lower one on a tie)."""
        i = bucket_index(self.buckets, t)
        if i in self.models:
            return self.models[i]
        spread = sorted(self.models, key=lambda j: (abs(j - i), j))
        return self.models[spread[0]]

    def meta(self):
        meta = [len(self.buckets)]
        for i, (lo, hi) in enumerate(self.buckets):
            meta += [lo, -1 if hi is None else hi, int(i in self.models)]
        return meta

    def to_named(self):
        named = {f"b{i}/{name}": arr for i in sorted(self.models)
                 for name, arr in self.models[i].to_named().items()}
        named["meta"] = np.array(self.meta(), dtype=np.float32)
        return named

    @classmethod
    def from_meta(cls, meta, params):
        buckets, models = [], {}
        for i in range(int(meta[0])):
            lo, hi, have = meta[1 + 3 * i:4 + 3 * i]
            buckets.append((int(lo), None if hi < 0 else int(hi)))
            if have > 0.5:
                prefix = f"b{i}/"
                models[i] = Seq2Seq.from_named(
                    {name[len(prefix):]: t.data for name, t in params.items()
                     if name.startswith(prefix)})
        return cls(buckets, models)


def train_backward_q_option2(corpus, schedule, buckets=DEFAULT_BUCKETS,
                             hidden=64, max_len=21):
    """Train per-bucket backward models on (partial target -> source) pairs,
    each by train_backward_model on the (source, prefix + EOS) pairs of
    its bucket.

    Bucket i trains with seed schedule.seed + i; empty buckets are left
    without a model, and nearest_model routes their lengths to the
    closest populated one.
    """
    buckets = tuple(tuple(b) for b in buckets)
    _check_buckets(buckets)
    per_bucket = {i: [] for i in range(len(buckets))}
    for pair in corpus.pairs:
        for t in range(1, pair.n + 1):
            per_bucket[bucket_index(buckets, t)].append(
                SequencePair(list(pair.src), list(pair.tgt[:t]) + [EOS]))
    models = {i: train_backward_model(
        replace(corpus, pairs=pairs),
        replace(schedule, seed=schedule.seed + i),
        hidden=hidden, max_len=max_len)
        for i, pairs in per_bucket.items() if pairs}
    ensemble = PartialBackwardEnsemble(buckets, models)
    ensemble.example_counts = {i: len(pairs) for i, pairs in per_bucket.items()
                               if pairs}
    return ensemble


# -- rollouts -------------------------------------------------------------------

ROLLOUT_METRICS = ("bleu", "rouge2")


@dataclass
class RolloutConfig:
    """Budget and provenance for sampled completions."""

    positions: int = 4      # distinct prefix positions per pair
    samples: int = 2        # sampled actions per position
    beam: int = 7           # completion beam width
    metric: str = "bleu"    # one of ROLLOUT_METRICS
    seed: int = 0

    def validate(self):
        if self.metric not in ROLLOUT_METRICS:
            raise ConfigError(f"unknown rollout metric {self.metric!r}")
        if self.positions < 1 or self.samples < 1 or self.beam < 1:
            raise ConfigError("rollout budget must be positive")
        return self


def generate_rollouts(model, corpus, config=None):
    """Sample actions after gold prefixes, beam-complete, score.

    Each record carries the inputs needed to recompute its own label:
    the metric of `completed` against the pair's gold target.  Records
    are emitted pair-major in corpus order; per-pair randomness depends
    only on (config.seed, pair position), so any subset of pairs yields
    the same records for the pairs it covers.
    """
    config = (config or RolloutConfig()).validate()
    _require_trained(model, "forward")
    complete_cfg = DecodeConfig(beam=config.beam)
    score = sentence_bleu if config.metric == "bleu" else rouge2
    records = []
    for i, pair in enumerate(corpus.pairs):
        gold = list(pair.tgt[:-1])
        # one engine per pair: the root is forced along gold, and every
        # completion searches on from it
        eng = Engine(model, None, pair.src, complete_cfg)
        ids = eng.ids[True, True]
        n = len(gold)
        rng = substream(config.seed, "rollout", i)
        k = min(config.positions, n)
        positions = sorted(int(t) + 1 for t in rng.permutation(n)[:k])
        root = eng.root
        for t in positions:
            for tok in gold[len(root.tokens[0]):t - 1]:
                root = eng.force(root, tok)
            # one ancestral draw per sample over the engine's candidates
            probs = np.exp(root.logprobs[0, ids].astype(np.float64))
            probs /= probs.sum()
            for j in range(config.samples):
                sample_seed = stream_key(config.seed, "action", i, t, j) % (2 ** 63)
                action_rng = np.random.default_rng(sample_seed)
                y_t = int(action_rng.choice(ids, p=probs))
                prefix = gold[:t - 1] + [y_t]
                # every completion ends in EOS
                completed = prefix if y_t == EOS else list(eng.search(
                    eng.force(root, y_t), complete_cfg)[0].tokens)
                q = float(score(completed[:-1], gold))
                records.append({
                    "src": [int(x) for x in pair.src],
                    "prefix": [int(x) for x in prefix],
                    "t": int(t),
                    "completed": [int(x) for x in completed],
                    "q": q,
                    "seed": int(sample_seed),
                })
    return records


def save_rollouts(path, records):
    """Newline-delimited JSON, one record per line."""
    write_ndjson(path, ({k: rec[k] for k in ROLLOUT_FIELDS} for rec in records))


def load_rollouts(path):
    """Rollout records; a line with a missing, extra or mistyped field is a
    LoadError naming path:line."""
    return read_ndjson(path, ROLLOUT_FIELDS, ROLLOUT_KINDS, exact=True)


# -- outcome predictor ----------------------------------------------------------


class OutcomePredictor(Checkpointed):
    """Dual sequence encoders with a two-layer scalar head.

    One LSTM reads the source X, another the partial target y_{1:t};
    their final states concatenate into tanh -> linear producing the
    predicted outcome q(Y).
    """

    TYPE_TAG = "outcome_q"

    def __init__(self, src_vocab, tgt_vocab, hidden=64, seed=0, params=None):
        self.src_vocab = int(src_vocab)
        self.tgt_vocab = int(tgt_vocab)
        self.hidden = int(hidden)
        h = self.hidden
        shapes = (("emb_x", (self.src_vocab, h)),
                  ("enc_x/w_ih", (4 * h, h)), ("enc_x/w_hh", (4 * h, h)),
                  ("enc_x/b", (4 * h,)),
                  ("emb_y", (self.tgt_vocab, h)),
                  ("enc_y/w_ih", (4 * h, h)), ("enc_y/w_hh", (4 * h, h)),
                  ("enc_y/b", (4 * h,)),
                  ("head1/w", (h, 2 * h)), ("head1/b", (h,)),
                  ("head2/w", (1, h)), ("head2/b", (1,)))
        self.p = init_params(shapes, params,
                             substream(seed, "value-init", self.TYPE_TAG))

    def _encode(self, side, ids, mask):
        """Final masked LSTM state of the "x" (source) or "y" (prefix) side."""
        _, h, _ = masked_lstm(self.p["emb_" + side],
                              lstm_params(self.p, "enc_" + side), ids, mask)
        return h

    def _head(self, hx, hy):
        cat = ad.concat([hx, hy], axis=-1)
        hid = ad.tanh(ad.affine(self.p["head1/w"], self.p["head1/b"], cat))
        return ad.affine(self.p["head2/w"], self.p["head2/b"], hid)

    def _graph(self, srcs, prefixes):
        """Prediction Tensor [B,1] of the checked id lists srcs[b], prefixes[b]."""
        for src, prefix in zip(srcs, prefixes, strict=True):
            check_ids(src, self.src_vocab, "source")
            check_ids(prefix, self.tgt_vocab, "prefix")
        hx = self._encode("x", *pad_ids(srcs))
        hy = self._encode("y", *pad_ids(prefixes))
        return self._head(hx, hy)

    def predict(self, srcs, prefixes):
        """Predicted outcomes [B] of the pairs (X, y_{1:t}); untaped."""
        return self._graph(srcs, prefixes).data[:, 0].astype(np.float64)

    def meta(self):
        return [self.src_vocab, self.tgt_vocab, self.hidden]


def train_outcome_q(records, schedule, src_vocab, tgt_vocab, hidden=64,
                    dev=None):
    """Fit the dual-encoder predictor on rollout records by MSE; given dev
    records, it carries their dev_report."""
    predictor = OutcomePredictor(src_vocab, tgt_vocab, hidden=hidden,
                                 seed=schedule.seed)
    labels = np.array([r["q"] for r in records], dtype=np.float64)
    _fit_q(predictor, lambda rows: predictor._graph(
        [records[i]["src"] for i in rows],
        [records[i]["prefix"] for i in rows]), labels, schedule)
    if dev is not None:
        pred = predictor.predict([r["src"] for r in dev],
                                 [r["prefix"] for r in dev])
        predictor.dev_report = dev_report(pred, [r["q"] for r in dev], labels)
    return predictor


# -- scorers wiring the estimators into guided search ---------------------------


def candidate_step(table, lstm, h, c, vocab):
    """One LSTM step from each [B,H] row of (h, c) on every id below vocab:
    the [B*V,H] (h, c) Tensors, candidate (b, y) at row b*V + y."""
    b = h.shape[0]
    h, c = (Tensor(np.repeat(s, vocab, axis=0)) for s in (h, c))
    x = ad.rows(table, np.tile(np.arange(vocab), b))
    return ad.lstm_step(lstm, x, h, c)


class OutcomeScorer:
    """qterm = predicted outcome of (ctx.src, hypothesis + candidate).

    Its rows are the prefix encoder's (h, c) and the source encoding hx,
    one per beam row; the root has none, so its step encodes the source
    and starts from zero (h, c).  A step is one LSTM step over B*V rows.
    """

    def __init__(self, predictor):
        self.q = predictor

    def score_candidates(self, beam, ctx):
        b, v = len(beam), ctx.owner.tgt_vocab
        rows = beam.scorer_rows
        if rows is None:
            rows = (*np.zeros((2, 1, self.q.hidden), np.float32),
                    self.q._encode("x", np.array([ctx.src]), None).data)
        h, c = candidate_step(self.q.p["emb_y"],
                              lstm_params(self.q.p, "enc_y"), *rows[:2], v)
        hx = np.repeat(rows[2], v, axis=0)
        out = self.q._head(Tensor(hx), h)
        return (out.data[:, 0].astype(np.float64).reshape(b, v),
                (h.data, c.data, hx))


class PartialBackwardScorer:
    """qterm = bucket-model estimate of log p(ctx.src | prefix + candidate).

    Its rows are the bucket model's encoder outputs enc [N,t,H] and last
    state (h, c) over each prefix, empty at the root.  A step is one
    encoder step over the B*V candidates, then one decoder pass of those
    rows over the shared target ctx.src + EOS.  At a bucket edge, where
    the candidates' model did not make the rows, the prefixes are encoded
    afresh; an empty bucket's lengths take the nearest populated bucket's
    model and carry on its rows.  EOS closes the sequence, so its qterm
    is the row's admitted qterm (a fresh score agrees up to BATCH_ATOL).
    """

    def __init__(self, ensemble):
        self.ensemble = ensemble

    def score_candidates(self, beam, ctx):
        b, v = len(beam), ctx.owner.tgt_vocab
        t = len(beam.tokens[0])
        model = self.ensemble.nearest_model(t + 1)
        rows = beam.scorer_rows
        if not t:
            rows = (np.zeros((b, 0, model.hidden), np.float32),
                    *np.zeros((2, b, model.hidden), np.float32))
        elif model is not self.ensemble.nearest_model(t):
            ids = np.array(beam.tokens, dtype=np.int64)
            rows = (r.data for r in model._encode_graph(ids, None))
        enc, h, c = rows
        h, c = candidate_step(model.p["src_embed"],
                              lstm_params(model.p, "enc"), h, c, v)
        enc = np.concatenate([np.repeat(enc, v, axis=0), h.data[:, None]],
                             axis=1)
        tgt = np.array([BOS, *ctx.src, EOS])
        tgt_in, tgt_out, ones = (np.broadcast_to(a, (b * v, len(tgt) - 1))
                                 for a in (tgt[:-1], tgt[1:], np.float32(1)))
        steps = model.decode_forced(Tensor(enc), None, h, c, tgt_in)
        out = forced_logprobs(steps, tgt_out, ones).reshape(b, v)
        out[:, EOS] = beam.qterm if t else NEG_SENTINEL
        return out, (enc, h.data, c.data)
