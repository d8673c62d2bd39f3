"""Beam search with pluggable per-step value scoring.

One engine drives every mode.  At each step every live hypothesis is
expanded over the candidate vocabulary; each candidate's combined score is

    combined = cumulative log p(prefix + y | X) + weight * qterm(y)

where qterm is the scorer's fresh estimate for the extended prefix.  The
previous step's q contribution is replaced, never accumulated: Q estimates
the same future quantity at every step, and summing estimates of one
quantity would double-count it.  The exhaustive oracle reuses the same
expansion code with an unbounded keep limit, so score arithmetic agrees
bitwise and ties resolve identically.

A step is batched: one scorer call, one sort and one decoder call cover
the whole beam, whose live hypotheses all have the same length.

Ties everywhere: higher combined score first, then the lexicographically
smaller token tuple (lower token id, then shorter prefix).

PAD and BOS are never candidates; UNK is an ordinary decodable token.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax
from .data import BOS, EOS, PAD
from .errors import ConfigError, ContractError, SearchSpaceError
from .seq2seq import DecoderState

MODES = ("sbs", "length_q", "mmi_q", "outcome_q", "mmi_rerank", "exhaustive")
GUIDED_MODES = ("length_q", "mmi_q", "outcome_q")

EXHAUSTIVE_GUARD = 10 ** 6

# A row batched into a K-row matmul rounds differently in float32 than the
# row alone: by 1e-6 to 8e-6 in log p for trained lab models, within this.
BATCH_ATOL = 1e-5


@dataclass
class DecodeConfig:
    mode: str = "sbs"
    beam: int = 7
    weight: float = 1.0
    length: int = None          # target length L for the length protocol
    nbest: int = None           # defaults to beam
    cap: int = None             # max content tokens; defaults to model.max_len
    mask_eos: bool = True       # length protocol: forbid EOS before L+1
    use_length_protocol: bool = False  # apply the L+1 protocol in sbs mode
    emit_timings: bool = False  # keep "ms" fields at 0.0 unless set

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.beam < 1:
            raise ConfigError(f"beam size must be >= 1, got {self.beam}")
        if self.weight < 0:
            raise ConfigError(f"weight must be >= 0, got {self.weight}")
        if self.length is not None and self.length < 1:
            raise ConfigError(f"target length must be >= 1, got {self.length}")
        return self


class Scorer:
    """Per-step value estimator interface for guided search.

    score_candidates(hyps, ctx) returns a [B, V] array: row b holds one
    qterm per target-vocabulary id for the hypothetical extension of
    hyps[b] by that id; EOS is scored mechanically like any other token.
    All hyps of one call have the same length.  Scorers that track their
    own recurrent state per hypothesis override start/advance.
    """

    def prepare(self, model, src, ctx):
        pass

    def start(self):
        return None

    def advance(self, state, token):
        return state

    def score_candidates(self, hyps, ctx):
        raise NotImplementedError


class CallableScorer(Scorer):
    """Adapts fn(prefix_tuple, candidate_id) -> float; for tests and demos."""

    def __init__(self, fn, vocab):
        self.fn = fn
        self.vocab = vocab

    def score_candidates(self, hyps, ctx):
        return np.array([[self.fn(hyp.tokens, y) for y in range(self.vocab)]
                         for hyp in hyps], dtype=np.float64)


def _stacked(model, states, repeats=1):
    """One DecoderState of [K,H] rows: each state, `repeats` times in a row."""
    def rows(field):
        return np.repeat(np.stack([getattr(s, field) for s in states]),
                         repeats, axis=0)
    return DecoderState(rows("h"), rows("c"), rows("feed"), states[0].t, model)


class RegressorScorer(Scorer):
    """qterm = estimator.predict(h_t) on speculative candidate states."""

    def __init__(self, regressor):
        self.regressor = regressor
        self.model = None

    def prepare(self, model, src, ctx):
        self.model = model

    def score_candidates(self, hyps, ctx):
        vocab = self.model.tgt_vocab
        state = _stacked(self.model, [hyp.state for hyp in hyps], vocab)
        ids = np.tile(np.arange(vocab), len(hyps))
        h, _, _, _ = self.model.advance(state, ctx, ids)
        return np.asarray(self.regressor.predict(h),
                          dtype=np.float64).reshape(len(hyps), vocab)


class LengthScorer(RegressorScorer):
    """qterm = -((L - t) - Qhat(h_t))^2 with speculative per-candidate h_t."""

    def __init__(self, regressor, length):
        if length is None:
            raise ConfigError("length_q decoding requires a target length L")
        super().__init__(regressor)
        self.length = int(length)

    def score_candidates(self, hyps, ctx):
        qhat = super().score_candidates(hyps, ctx)
        remaining = self.length - (len(hyps[0].tokens) + 1)
        return -((remaining - qhat) ** 2)


@dataclass(slots=True, eq=False)
class _Hyp:
    tokens: tuple
    cum: float
    state: object
    next_logprobs: np.ndarray
    scorer_state: object
    qterm: float
    combined: float


@dataclass
class DecodedHyp:
    """A finished hypothesis with its score decomposition."""

    tokens: tuple      # includes the terminating EOS
    logp: float
    q_term: float
    combined: float

    @property
    def content(self):
        return self.tokens[:-1] if self.tokens and self.tokens[-1] == EOS \
            else self.tokens

    def __len__(self):
        return len(self.content)


@dataclass
class NBestList:
    entries: list      # DecodedHyp, sorted by (-combined, tokens)

    def top(self):
        return self.entries[0]


class _Engine:
    """Shared expansion machinery for beam, protocol, and exhaustive modes.

    A candidate is the tuple (combined, tokens, parent, y, cum, qterm).
    The live beam is kept in token order, so a parent's row is its rank.
    """

    def __init__(self, model, scorer, src, config, prefix=()):
        if prefix and scorer is not None:
            # a forced root was never admitted with a qterm to build on
            raise ContractError("a scorer cannot guide a forced prefix")
        self.model = model
        self.weight = config.weight if scorer is not None else 0.0
        self.scorer = scorer if scorer is not None else Scorer()
        self.ctx, state0 = model.encode(src)
        self.scorer.prepare(model, src, self.ctx)
        logprobs, state = model.decode_step(state0, BOS, self.ctx)
        sstate = self.scorer.start()
        cum = 0.0
        for tok in prefix:
            if tok in (PAD, BOS, EOS):
                raise ContractError(f"prefix may only hold content tokens, "
                                    f"got {tok}")
            cum += float(logprobs[tok])
            logprobs, state = model.decode_step(state, tok, self.ctx)
        self.root = _Hyp(tuple(prefix), cum, state, logprobs, sstate, 0.0, cum)

    def expand(self, live, allow_content=True, allow_eos=True):
        """[B, V] float64 (base, qterm, combined) of every extension of
        live, and the ids that may be candidates at this step."""
        base = (np.array([[hyp.cum] for hyp in live], dtype=np.float64)
                + np.stack([hyp.next_logprobs for hyp in live]).astype(np.float64))
        if self.weight != 0.0:
            qterm = np.asarray(self.scorer.score_candidates(live, self.ctx),
                               dtype=np.float64)
            if qterm.shape != base.shape:
                raise ContractError(f"scorer returned shape {qterm.shape}, "
                                    f"want {base.shape}")
            if not np.isfinite(qterm).all():
                # a NaN would make every comparison in the sort false
                raise ContractError("scorer returned a non-finite qterm")
        else:
            qterm = np.zeros_like(base)
        combined = base + self.weight * qterm
        ids = [y for y in range(self.model.tgt_vocab) if y not in (PAD, BOS)
               and (allow_eos if y == EOS else allow_content)]
        return base, qterm, combined, np.array(ids, dtype=np.int64)

    def ranked(self, live, scores, limit=None):
        """The best `limit` candidates (all if None) of an expansion, best first.

        Ranked by combined score, then the parent's row, then y: the tie
        rule, because live hypotheses share a length and are in token order.
        """
        base, qterm, combined, ids = scores
        rows = np.repeat(np.arange(len(live)), len(ids))
        ys = np.tile(ids, len(live))
        pick = np.lexsort((ys, rows, -combined[:, ids].ravel()))[:limit]
        return [(float(combined[i, y]), live[i].tokens + (y,), live[i], y,
                 float(base[i, y]), float(qterm[i, y]))
                for i, y in zip(rows[pick].tolist(), ys[pick].tolist())]

    def settle(self, chosen):
        """Split chosen candidates into (new live hyps, finished DecodedHyps).

        Every content candidate advances in one decoder call over its
        parent's stacked state; the new live hyps are in token order.
        """
        finished = [DecodedHyp(c[1], c[4], c[5], c[0]) for c in chosen
                    if c[3] == EOS]
        grow = sorted((c for c in chosen if c[3] != EOS), key=lambda c: c[1])
        if not grow:
            return [], finished
        stacked = _stacked(self.model, [cand[2].state for cand in grow])
        h, c, feed, logits = self.model.advance(
            stacked, self.ctx, [cand[3] for cand in grow])
        logprobs = log_softmax(Tensor(logits)).data
        live = []
        for k, (combined, tokens, parent, y, cum, qterm) in enumerate(grow):
            state = DecoderState(h[k], c[k], feed[k], parent.state.t + 1,
                                 self.model)
            sstate = self.scorer.advance(parent.scorer_state, y)
            live.append(_Hyp(tokens, cum, state, logprobs[k], sstate,
                             qterm, combined))
        return live, finished


def _nbest(pool, limit):
    ordered = sorted(pool, key=lambda h: (-h.combined, h.tokens))
    return NBestList(ordered[:limit] if limit else ordered)


def _run(model, scorer, src, config, keep_all=False, prefix=()):
    config.validate()
    cap = config.cap if config.cap is not None else model.max_len
    cap = max(cap, len(prefix))
    eng = _Engine(model, scorer, src, config, prefix=prefix)
    live = [eng.root]
    pool = []
    limit = None if keep_all else config.beam
    for pos in range(len(prefix) + 1, cap + 2):
        if not live:
            break
        scores = eng.expand(live, allow_content=pos <= cap)
        live, finished = eng.settle(eng.ranked(live, scores, limit))
        pool.extend(finished)
        if not keep_all and len(pool) >= config.beam:
            break
    return pool


def beam_search(model, src, config=None):
    """Standard beam search ranked by cumulative log-probability."""
    config = config or DecodeConfig()
    pool = _run(model, None, src, config)
    return _nbest(pool, config.nbest or config.beam)


def beam_complete(model, src, prefix, config=None):
    """Beam-search the best completion of a forced content prefix.

    Returns a DecodedHyp whose tokens include the prefix; its logp covers
    the whole sequence, forced steps included.
    """
    config = config or DecodeConfig()
    pool = _run(model, None, src, config, prefix=tuple(prefix))
    return _nbest(pool, config.nbest or config.beam).top()


def guided_beam_search(model, scorer, src, config):
    """Beam search ranked by log p + weight * qterm at every step."""
    if config.mode == "length_q" and not isinstance(scorer, LengthScorer):
        if getattr(scorer, "length", None) is None:
            raise ConfigError("length_q decoding requires a length-aware scorer")
    pool = _run(model, scorer, src, config)
    return _nbest(pool, config.nbest or config.beam)


def exhaustive_decode(model, scorer, src, config=None):
    """Global argmax of the combined objective over all capped sequences.

    Refuses search spaces beyond |V|^cap = 10^6; memory grows with the
    live frontier, so in practice keep |V| and cap tiny.
    """
    config = config or DecodeConfig(mode="exhaustive")
    cap = config.cap if config.cap is not None else model.max_len
    if model.tgt_vocab ** cap > EXHAUSTIVE_GUARD:
        raise SearchSpaceError(
            f"search space {model.tgt_vocab}^{cap} exceeds {EXHAUSTIVE_GUARD}")
    pool = _run(model, scorer, src, config, keep_all=True)
    return _nbest(pool, None).top()


def _admitted_eos(live, scores, beam):
    """EOS extensions ranked within the top `beam` of their own parent;
    EOS wins its ties, as the lowest candidate id (PAD, BOS never are)."""
    base, qterm, combined, ids = scores
    eos = combined[:, EOS:EOS + 1]
    rank = (combined[:, ids] > eos).sum(axis=1)
    return [DecodedHyp(live[i].tokens + (EOS,), float(base[i, EOS]),
                       float(qterm[i, EOS]), float(combined[i, EOS]))
            for i in np.flatnonzero(rank < beam).tolist()]


def length_forced_select(model, regressor, src, length, config=None):
    """Decode a sequence of exactly length L when the model permits it.

    EOS is masked while positions 1..L are generated (configurable); at
    position L+1 every live hypothesis whose own top-B next tokens include
    EOS joins a pool, and the pool member with the greatest full-sequence
    log-likelihood wins.  If the pool is empty, decoding continues
    unmasked and the first finisher (best combined, then tie rule) wins.
    """
    config = config or DecodeConfig(mode="length_q")
    config.validate()
    if length is None or length < 1:
        raise ConfigError(f"target length must be >= 1, got {length}")
    scorer = LengthScorer(regressor, length) if regressor is not None else None
    if not config.mask_eos:
        # ablation arm: no masking and no admission step, so only the
        # scorer (if any) pulls the model toward the target length
        return _nbest(_run(model, scorer, src, config),
                      config.nbest or config.beam).top()
    cap = config.cap if config.cap is not None else model.max_len
    cap = max(cap, length + 1)
    eng = _Engine(model, scorer, src, config)
    live = [eng.root]
    for pos in range(1, cap + 2):
        if not live:
            break
        scores = eng.expand(live, allow_content=pos <= cap,
                            allow_eos=pos > length)
        if pos == length + 1:
            admitted = _admitted_eos(live, scores, config.beam)
            if admitted:
                # footnote rule: the pool competes on likelihood, not
                # combined score
                return min(admitted, key=lambda h: (-h.logp, h.tokens))
        live, finished = eng.settle(eng.ranked(live, scores, config.beam))
        if finished:
            return min(finished, key=lambda h: (-h.combined, h.tokens))
    raise SearchSpaceError("length-forced decoding exhausted its cap")


NEG_SENTINEL = -1e30  # stands in for -inf; keeps scores finite and JSON-safe


def rescore_nbest(entries, backward, src, weight):
    """Combine forward log p with exact backward log p(X|Y) for a list."""
    rescored = []
    src_as_target = list(src) + [EOS]
    for h in entries:
        content = list(h.content)
        if content:
            back = backward.sequence_logprob(content, src_as_target)
        else:
            back = NEG_SENTINEL  # an empty hypothesis cannot explain X
        rescored.append(DecodedHyp(h.tokens, h.logp, back,
                                   h.logp + weight * back))
    rescored.sort(key=lambda h: (-h.combined, h.tokens))
    return rescored


def mmi_rerank(forward, backward, src, config):
    """N-best from forward beam search, reranked by log p + w*log p(X|Y)."""
    config.validate()
    base = beam_search(forward, src, config)
    rescored = rescore_nbest(base.entries, backward, src, config.weight)
    nbest = NBestList(rescored)
    return nbest.top(), nbest


def decode_corpus(model, corpus, config, scorer_factory=None, backward=None):
    """Decode every pair; returns (records, stats).

    scorer_factory(pair) builds the per-pair scorer for guided modes; for
    length_q it returns the remaining-length regressor.  A failing pair,
    including one whose scorer returns a non-finite qterm, becomes an
    error record and decoding continues.  The
    "ms" field stays 0.0 unless config.emit_timings is set, so reruns are
    byte-for-byte reproducible by default.
    """
    config.validate()
    if config.mode in GUIDED_MODES and scorer_factory is None:
        raise ConfigError(f"{config.mode} decoding requires a scorer factory")
    if config.mode == "mmi_rerank" and backward is None:
        raise ConfigError("mmi_rerank requires a backward model")
    records = []
    times = []
    for i, pair in enumerate(corpus.pairs):
        t0 = time.perf_counter()
        try:
            hyp = _decode_pair(model, pair, config, scorer_factory, backward)
            ms = (time.perf_counter() - t0) * 1000.0
            times.append(ms)
            records.append({
                "id": i,
                "src": " ".join(corpus.src_vocab.decode(pair.src)),
                "hyp": " ".join(corpus.tgt_vocab.decode(hyp.content)),
                "logp": float(hyp.logp),
                "q_term": float(hyp.q_term),
                "combined": float(hyp.combined),
                "len": len(hyp.content),
                "ms": round(ms, 3) if config.emit_timings else 0.0,
            })
        except Exception as exc:  # noqa: BLE001 - per-pair isolation is the contract
            times.append((time.perf_counter() - t0) * 1000.0)
            records.append({"id": i, "error": f"{type(exc).__name__}: {exc}"})
    stats = {"pairs": len(records),
             "errors": sum(1 for r in records if "error" in r),
             "total_ms": round(sum(times), 3)}
    return records, stats


def _decode_pair(model, pair, config, scorer_factory, backward):
    mode = config.mode
    if mode == "mmi_rerank":
        return mmi_rerank(model, backward, pair.src, config)[0]
    scorer = scorer_factory(pair) if scorer_factory and mode != "sbs" else None
    if scorer is None and mode in GUIDED_MODES:
        raise ConfigError(f"{mode} decoding requires a scorer")
    if mode == "length_q" or (mode == "sbs" and config.use_length_protocol):
        length = config.length if config.length is not None else pair.n
        return length_forced_select(model, scorer, pair.src, length, config)
    if mode == "exhaustive":
        return exhaustive_decode(model, scorer, pair.src, config)
    if mode == "sbs":
        return beam_search(model, pair.src, config).top()
    return guided_beam_search(model, scorer, pair.src, config).top()
