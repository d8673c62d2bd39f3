"""Future-outcome estimators Q and their training procedures.

Three families, one interface: given a partial hypothesis, estimate a
scalar property of the full sequence it will become.

* LengthRegressor       h_t -> remaining token count N - t
* BackwardRegressor     h_t -> log p(X|Y) of the full pair (option 1)
* PartialBackwardEnsemble  per-length-bucket seq2seq models scoring
                        p(X | y_{1:t}) directly (option 2)
* OutcomePredictor      (X, y_{1:t}) -> predicted task metric of the
                        finished sequence, fit on sampled rollouts

Regression heads train on teacher-forced decoder states over gold
targets; they never backpropagate into the sequence model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpointed
from .data import (BOS, EOS, PAD, Corpus, SequencePair, batch_iter,
                   read_ndjson, write_ndjson)
from .decode import NEG_SENTINEL, DecodeConfig, Scorer, beam_complete
from .errors import ConfigError, ContractError, DimensionError, LoadError
from .metrics import rouge2, sentence_bleu
from .seeding import stream_key, substream
from .seq2seq import (Seq2Seq, batch_logprobs, fit, init_params, lstm_params,
                      masked_lstm, train_mle)

# fdqbench wraps these names in this module, so they stay bound here
from .autodiff import backward  # noqa: F401
from .checkpoint import load_tensors, save_tensors  # noqa: F401
from .optim import optimizer_step  # noqa: F401

DEFAULT_BUCKETS = ((1, 2), (3, 4), (5, 7), (8, 12), (13, None))

ROLLOUT_FIELDS = ("src", "prefix", "t", "completed", "q", "seed")


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

    @classmethod
    def from_meta(cls, meta, params):
        return cls(int(meta[0]), params=params)


class LengthRegressor(_MlpRegressor):
    """Predicts the count of tokens still to be generated from h_t."""

    TYPE_TAG = "length_q"


class BackwardRegressor(_MlpRegressor):
    """Predicts the full-pair backward log-probability from h_t."""

    TYPE_TAG = "backward_q1"


# -- training examples from teacher-forced passes ------------------------------


def _forced_examples(model, corpus, batch_size, label_fn):
    """(features, labels, index) over states h_t for t = 1..N of each pair.

    label_fn(i, t) supplies the regression target of pair i (its position
    in corpus order); index rows are (i, t).
    """
    feats, labels, index = [], [], []
    offset = 0
    for batch in batch_iter(corpus, batch_size):
        states = model.forced_states(batch)
        rows = int(batch.src.shape[0])
        for r in range(rows):
            pair = corpus.pairs[offset + r]
            for t in range(1, pair.n + 1):
                feats.append(states[r, t])
                labels.append(label_fn(offset + r, t))
                index.append((offset + r, t))
        offset += rows
    h = model.hidden
    if not feats:
        return (np.zeros((0, h), np.float32), np.zeros(0, np.float64),
                np.zeros((0, 2), np.int64))
    return (np.asarray(feats, np.float32), np.asarray(labels, np.float64),
            np.asarray(index, np.int64))


def length_examples(model, corpus, batch_size=32):
    """Features h_t with labels N - t for every pair and every t."""
    return _forced_examples(model, corpus, batch_size,
                            lambda i, t: float(corpus.pairs[i].n - t))


def backward_examples(forward, backward, corpus, batch_size=32):
    """Features h_t with the pair's full backward score as the label.

    The label is log p(X|Y) of the complete pair under the backward
    model, identical for every t of one pair; one batched pass over the
    swapped corpus scores every pair.
    """
    labels = batch_logprobs(backward, swap_corpus(corpus).pairs)
    return _forced_examples(forward, corpus, batch_size,
                            lambda i, t: labels[i])


def _row_batches(n, batch_size):
    """fit's epoch_batches over n rows: slices of a seeded permutation."""
    def epoch(seed):
        order = np.random.default_rng(seed).permutation(n)
        return [order[start:start + batch_size]
                for start in range(0, n, batch_size)]
    return epoch


def _sse(pred, labels):
    """Summed squared error of [B,1] predictions against [B] labels."""
    return ad.sum_all(ad.square(ad.sub(pred, Tensor(labels[:, None]))))


def _fit_regressor(reg, examples, corpus, schedule, dev=None, log=None):
    """MSE training of a head on the fixed features examples(corpus).

    Given dev, the fitted head carries dev_report: its dev-set mse and
    the baseline_mse of always predicting the mean training label.
    """
    feats, labels, _ = examples(corpus)
    if len(feats) == 0:
        raise ContractError("no training examples for the regressor")

    def loss_fn(idx):
        return _sse(reg._graph(Tensor(feats[idx])), labels[idx]), len(idx)

    dev_mse = None
    if dev is not None:
        dev_feats, dev_labels, _ = examples(dev)

        def dev_mse():
            return regression_mse(reg, dev_feats, dev_labels)

    fit(reg.params(), schedule, _row_batches(len(feats), schedule.batch_size),
        loss_fn, "mse", dev_metric=dev_mse, log=log)
    if dev is not None:
        reg.dev_report = {"mse": dev_mse(), "baseline_mse":
                          constant_baseline_mse(labels, dev_labels)}
    return reg


def regression_mse(reg, feats, labels):
    """Mean squared error of a head on fixed features."""
    if len(feats) == 0:
        raise ContractError("empty evaluation set")
    pred = reg.predict(feats)
    return float(np.mean((pred - np.asarray(labels, np.float64)) ** 2))


def constant_baseline_mse(train_labels, eval_labels):
    """MSE of always predicting the training-label mean."""
    mean = float(np.mean(train_labels))
    return float(np.mean((np.asarray(eval_labels, np.float64) - mean) ** 2))


def train_length_q(model, corpus, schedule, dev=None, log=None):
    """Fit a remaining-length head on teacher-forced states."""
    _require_trained(model, "forward")
    return _fit_regressor(
        LengthRegressor(model.hidden, seed=schedule.seed),
        lambda c: length_examples(model, c, schedule.batch_size),
        corpus, schedule, dev, log)


# -- backward-probability estimators -------------------------------------------


def swap_corpus(corpus):
    """Sources become targets and vice versa; EOS moves accordingly."""
    pairs = [SequencePair(list(p.tgt[:-1]), list(p.src) + [EOS])
             for p in corpus.pairs]
    provenance = dict(corpus.provenance)
    provenance["swapped"] = True
    return Corpus(pairs, corpus.tgt_vocab, corpus.src_vocab, provenance)


def train_backward_model(corpus, schedule, hidden=64, attention=True,
                         max_len=21, dev=None, log=None):
    """A standard seq2seq fit on the swapped corpus, modelling p(X|Y)."""
    swapped = swap_corpus(corpus)
    model = Seq2Seq(len(corpus.tgt_vocab), len(corpus.src_vocab),
                    hidden=hidden, attention=attention, max_len=max_len,
                    seed=schedule.seed)
    train_mle(model, swapped, schedule,
              dev=swap_corpus(dev) if dev is not None else None, log=log)
    return model


def train_backward_q_option1(forward, backward, corpus, schedule,
                             dev=None, log=None):
    """Fit h_t -> log p(X|Y) with the full-pair score as a constant label."""
    _require_trained(forward, "forward")
    _require_trained(backward, "backward")
    return _fit_regressor(
        BackwardRegressor(forward.hidden, seed=schedule.seed),
        lambda c: backward_examples(forward, backward, c, schedule.batch_size),
        corpus, schedule, dev, log)


def _check_buckets(buckets):
    if not buckets:
        raise ConfigError("bucket spec is empty")
    expect = 1
    for i, (lo, hi) in enumerate(buckets):
        if lo != expect:
            raise ConfigError(f"bucket {i} starts at {lo}, want {expect}")
        last = i == len(buckets) - 1
        if last:
            if hi is not None:
                raise ConfigError("final bucket must be open-ended")
        else:
            if hi is None or hi < lo:
                raise ConfigError(f"bucket {i} bound {hi} invalid")
            expect = hi + 1


def _bucket_index(buckets, t):
    if t < 1:
        raise ConfigError(f"prefix length must be >= 1, got {t}")
    for i, (lo, hi) in enumerate(buckets):
        if t >= lo and (hi is None or t <= hi):
            return i
    raise ConfigError(f"no bucket covers length {t}")


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

    def bucket_index(self, t):
        return _bucket_index(self.buckets, t)

    def nearest_model(self, t):
        """The model of the bucket owning length t, else of the closest
        populated bucket (the lower one on a tie)."""
        i = self.bucket_index(t)
        if i in self.models:
            return self.models[i]
        spread = sorted(self.models, key=lambda j: (abs(j - i), j))
        return self.models[spread[0]]

    def to_named(self):
        named = {}
        meta = [float(len(self.buckets))]
        for i, (lo, hi) in enumerate(self.buckets):
            meta += [float(lo), -1.0 if hi is None else float(hi),
                     1.0 if i in self.models else 0.0]
            if i in self.models:
                for name, arr in self.models[i].to_named().items():
                    named[f"b{i}/{name}"] = arr
        named["meta"] = np.array(meta, dtype=np.float32)
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
                             hidden=64, attention=True, max_len=21,
                             full_targets_only=False, log=None):
    """Train per-bucket backward models on (partial target -> source) pairs.

    Bucket i trains with seed schedule.seed + i; empty buckets are left
    without a model, and nearest_model routes their lengths to the
    closest populated one.  full_targets_only restricts examples to t = N,
    the controlled configuration in which a single-bucket ensemble must
    match a plain backward model exactly.
    """
    buckets = tuple(tuple(b) for b in buckets)
    _check_buckets(buckets)
    per_bucket = {i: [] for i in range(len(buckets))}
    for pair in corpus.pairs:
        content = list(pair.tgt[:-1])
        ts = [len(content)] if full_targets_only else range(1, len(content) + 1)
        for t in ts:
            if t == 0:
                continue
            per_bucket[_bucket_index(buckets, t)].append(
                SequencePair(content[:t], list(pair.src) + [EOS]))
    models = {}
    for i, pairs in per_bucket.items():
        if not pairs:
            continue
        sub = Corpus(pairs, corpus.tgt_vocab, corpus.src_vocab,
                     {"bucket": list(buckets[i])})
        model = Seq2Seq(len(corpus.tgt_vocab), len(corpus.src_vocab),
                        hidden=hidden, attention=attention, max_len=max_len,
                        seed=schedule.seed + i)
        bucket_log = (lambda rec, _i=i: log(dict(rec, bucket=_i))) if log else None
        train_mle(model, sub, replace(schedule, seed=schedule.seed + i),
                  log=bucket_log)
        models[i] = model
    ensemble = PartialBackwardEnsemble(buckets, models)
    ensemble.example_counts = {i: len(pairs) for i, pairs in per_bucket.items()
                               if pairs}
    return ensemble


# -- rollouts -------------------------------------------------------------------


@dataclass
class RolloutConfig:
    """Budget and provenance for sampled completions."""

    positions: int = 4      # distinct prefix positions per pair
    samples: int = 2        # sampled actions per position
    beam: int = 7           # completion beam width
    metric: str = "bleu"    # or "rouge2"
    prefix_source: str = "gold"   # or "decoded"
    seed: int = 0

    def validate(self):
        if self.metric not in ("bleu", "rouge2"):
            raise ConfigError(f"unknown rollout metric {self.metric!r}")
        if self.prefix_source not in ("gold", "decoded"):
            raise ConfigError(
                f"unknown prefix source {self.prefix_source!r}")
        if self.positions < 1 or self.samples < 1:
            raise ConfigError("rollout budget must be positive")
        return self


def _score_outcome(metric, hyp_content, ref_content):
    if metric == "bleu":
        return float(sentence_bleu(list(hyp_content), list(ref_content)))
    return float(rouge2(list(hyp_content), list(ref_content)))


def _sample_token(model, ctx, state0, prefix, rng):
    """One ancestral draw after a forced prefix; PAD and BOS are barred."""
    state, prev = state0, BOS
    for tok in prefix:
        _, state = model.decode_step(state, prev, ctx)
        prev = tok
    logprobs, _ = model.decode_step(state, prev, ctx)
    probs = np.exp(logprobs.astype(np.float64))
    probs[PAD] = 0.0
    probs[BOS] = 0.0
    probs /= probs.sum()
    return int(rng.choice(model.tgt_vocab, p=probs))


def generate_rollouts(model, corpus, config=None):
    """Sample one action per chosen position, beam-complete, score.

    Each record carries the inputs needed to recompute its own label:
    the metric of `completed` against the pair's gold target.  Records
    are emitted pair-major in corpus order; per-pair randomness depends
    only on (config.seed, pair position), so any subset of pairs yields
    the same records for the pairs it covers.
    """
    config = (config or RolloutConfig()).validate()
    _require_trained(model, "forward")
    complete_cfg = DecodeConfig(beam=config.beam)
    records = []
    for i, pair in enumerate(corpus.pairs):
        gold = list(pair.tgt[:-1])
        if config.prefix_source == "gold":
            base = gold
        else:
            base = list(beam_complete(model, pair.src, (),
                                      complete_cfg).content)
        n = len(base)
        if n == 0:
            continue
        rng = substream(config.seed, "rollout", i)
        k = min(config.positions, n)
        positions = sorted(int(t) + 1 for t in rng.permutation(n)[:k])
        ctx, state0 = model.encode(pair.src)
        for t in positions:
            for j in range(config.samples):
                sample_seed = stream_key(config.seed, "action", i, t, j) % (2 ** 63)
                action_rng = np.random.default_rng(sample_seed)
                y_t = _sample_token(model, ctx, state0, base[:t - 1], action_rng)
                prefix = base[:t - 1] + [y_t]
                if y_t == EOS:
                    completed = list(prefix)
                else:
                    completed = list(beam_complete(model, pair.src, prefix,
                                                   complete_cfg).tokens)
                content = completed[:-1] if completed[-1] == EOS else completed
                q = _score_outcome(config.metric, content, gold)
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
    """Newline-delimited JSON, one record per line, spaced separators."""
    write_ndjson(path, ({k: rec[k] for k in ROLLOUT_FIELDS} for rec in records),
                 separators=(", ", ": "))


def load_rollouts(path):
    records = read_ndjson(path)
    for i, rec in enumerate(records):
        if set(rec) != set(ROLLOUT_FIELDS):
            raise LoadError(f"{path}: record {i}: fields {sorted(rec)}, "
                            f"want {sorted(ROLLOUT_FIELDS)}")
    return records


# -- outcome predictor ----------------------------------------------------------


def _pad_ids(seqs):
    """Pack variable-length id lists into ([B,S] ids, [B,S] float mask)."""
    b = len(seqs)
    s = max(len(x) for x in seqs)
    ids = np.zeros((b, s), dtype=np.int64)
    mask = np.zeros((b, s), dtype=np.float32)
    for r, seq in enumerate(seqs):
        ids[r, :len(seq)] = seq
        mask[r, :len(seq)] = 1.0
    return ids, mask


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

    def _graph(self, src_ids, src_mask, pre_ids, pre_mask):
        hx = self._encode("x", src_ids, src_mask)
        hy = self._encode("y", pre_ids, pre_mask)
        return self._head(hx, hy)

    def _check_ids(self, seq, vocab, role):
        if len(seq) == 0:
            raise ContractError(f"{role} sequence is empty")
        for tok in seq:
            if not 0 <= tok < vocab:
                raise ContractError(
                    f"{role} id {tok} outside vocabulary of {vocab}")

    def step_prefix(self, state, tokens):
        """Advance the prefix encoder's (h, c), [1,H] or [K,H], by each token.

        Returns the [K,H] arrays (h, c): row k is the state after tokens[k].
        """
        k = len(tokens)
        h, c = (Tensor(np.broadcast_to(s, (k, self.hidden)).copy())
                for s in state)
        x = ad.rows(self.p["emb_y"], np.asarray(tokens))
        h2, c2 = ad.lstm_step(lstm_params(self.p, "enc_y"), x, h, c)
        return h2.data, c2.data

    def predict(self, src, prefix):
        """Predicted outcome for one (X, y_{1:t}); untaped and deterministic."""
        self._check_ids(src, self.src_vocab, "source")
        self._check_ids(prefix, self.tgt_vocab, "prefix")
        src_ids, src_mask = _pad_ids([list(src)])
        pre_ids, pre_mask = _pad_ids([list(prefix)])
        return float(self._graph(src_ids, src_mask, pre_ids, pre_mask).data[0, 0])

    def predict_batch(self, srcs, prefixes):
        src_ids, src_mask = _pad_ids([list(s) for s in srcs])
        pre_ids, pre_mask = _pad_ids([list(p) for p in prefixes])
        out = self._graph(src_ids, src_mask, pre_ids, pre_mask)
        return out.data[:, 0].astype(np.float64)

    def meta(self):
        return [self.src_vocab, self.tgt_vocab, self.hidden]

    @classmethod
    def from_meta(cls, meta, params):
        vs, vt, hidden = (int(x) for x in meta)
        return cls(vs, vt, hidden, params=params)


def outcome_mse(predictor, records):
    if not records:
        raise ContractError("empty evaluation set")
    pred = predictor.predict_batch([r["src"] for r in records],
                                   [r["prefix"] for r in records])
    labels = np.array([r["q"] for r in records], dtype=np.float64)
    return float(np.mean((pred - labels) ** 2))


def train_outcome_q(records, schedule, src_vocab, tgt_vocab, hidden=64,
                    dev=None, log=None):
    """Fit the dual-encoder predictor on rollout records by MSE; given dev
    records, it carries dev_report as _fit_regressor's heads do."""
    if not records:
        raise ContractError("no rollout records to train on")
    predictor = OutcomePredictor(src_vocab, tgt_vocab, hidden=hidden,
                                 seed=schedule.seed)
    labels = np.array([r["q"] for r in records], dtype=np.float64)

    def loss_fn(idx):
        src_ids, src_mask = _pad_ids([records[i]["src"] for i in idx])
        pre_ids, pre_mask = _pad_ids([records[i]["prefix"] for i in idx])
        pred = predictor._graph(src_ids, src_mask, pre_ids, pre_mask)
        return _sse(pred, labels[idx]), len(idx)

    dev_mse = (lambda: outcome_mse(predictor, dev)) if dev is not None else None
    fit(predictor.params(), schedule,
        _row_batches(len(records), schedule.batch_size), loss_fn, "mse",
        dev_metric=dev_mse, log=log)
    if dev is not None:
        baseline = constant_baseline_mse(labels, [r["q"] for r in dev])
        predictor.dev_report = {"mse": dev_mse(), "baseline_mse": baseline}
    return predictor


# -- scorers wiring the estimators into guided search ---------------------------


class OutcomeScorer(Scorer):
    """qterm = predicted outcome of (X, hypothesis + candidate).

    Keeps the prefix encoder's (h, c) as [B,H] rows, one per beam row, so
    each expansion costs one batched LSTM step over the vocabulary.
    """

    def __init__(self, predictor):
        self.q = predictor
        self.hx = None

    def prepare(self, model, src, ctx):
        ids, mask = _pad_ids([list(src)])
        self.hx = self.q._encode("x", ids, mask).data
        h = np.zeros((1, self.q.hidden), dtype=np.float32)
        return (h, h.copy())

    def advance(self, rows, parents, ys):
        return self.q.step_prefix([r[parents] for r in rows], ys)

    def score_candidates(self, beam, ctx):
        b, v = len(beam), ctx.owner.tgt_vocab
        state = [np.repeat(r, v, axis=0) for r in beam.scorer_rows]
        h, _ = self.q.step_prefix(state, np.tile(np.arange(v), b))
        hx = Tensor(np.broadcast_to(self.hx, (b * v, self.q.hidden)).copy())
        out = self.q._head(hx, Tensor(h))
        return out.data[:, 0].astype(np.float64).reshape(b, v)


class PartialBackwardScorer(Scorer):
    """qterm = bucket-model estimate of log p(X | hypothesis + candidate).

    The content candidates of all beam rows share one bucket and are
    scored in one padded batch.  EOS closes the sequence, so its qterm is
    the row's own admitted qterm: its parent's step scored it under the
    same bucket model (a fresh score agrees up to BATCH_ATOL).
    Buckets without a model fall back to the nearest populated one.
    """

    def __init__(self, ensemble):
        self.ensemble = ensemble
        self.src = None

    def prepare(self, model, src, ctx):
        self.src = list(src)

    def score_candidates(self, beam, ctx):
        t = len(beam.tokens[0])
        tgt = self.src + [EOS]
        vocab = ctx.owner.tgt_vocab
        content = [y for y in range(vocab) if y not in (PAD, BOS, EOS)]
        model = self.ensemble.nearest_model(t + 1)
        pairs = [SequencePair(list(tokens) + [y], tgt)
                 for tokens in beam.tokens for y in content]
        out = np.zeros((len(beam), vocab), dtype=np.float64)
        out[:, content] = batch_logprobs(model, pairs).reshape(len(beam), -1)
        out[:, EOS] = beam.qterm if t else NEG_SENTINEL
        return out
