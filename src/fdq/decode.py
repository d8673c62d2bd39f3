"""Beam search with pluggable per-step value scoring.

One engine drives every mode.  At each step a live hypothesis is expanded
over the candidate vocabulary; each candidate's combined score is

    combined = cumulative log p(prefix + y | X) + weight * qterm(y)

where qterm is the scorer's fresh estimate for the extended prefix.  The
previous step's q contribution is replaced, never accumulated: Q estimates
the same future quantity at every step, and summing estimates of one
quantity would double-count it.  The exhaustive oracle reuses the same
expansion code with an unbounded keep limit, so score arithmetic agrees
bitwise and ties resolve identically.

Ties everywhere: higher combined score first, then the lexicographically
smaller token tuple (lower token id, then shorter prefix).

PAD and BOS are never candidates; UNK is an ordinary decodable token.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import BOS, EOS, PAD
from .errors import ConfigError, ContractError, SearchSpaceError

MODES = ("sbs", "length_q", "mmi_q", "outcome_q", "mmi_rerank", "exhaustive")
GUIDED_MODES = ("length_q", "mmi_q", "outcome_q")

EXHAUSTIVE_GUARD = 10 ** 6


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

    score_candidates returns one qterm per target-vocabulary id for the
    hypothetical extension of hyp by that id; EOS is scored mechanically
    like any other token.  Scorers that track their own recurrent state
    per hypothesis override start/advance.
    """

    def prepare(self, model, src, ctx):
        pass

    def start(self):
        return None

    def advance(self, state, token):
        return state

    def score_candidates(self, hyp, ctx):
        raise NotImplementedError


class CallableScorer(Scorer):
    """Adapts fn(prefix_tuple, candidate_id) -> float; for tests and demos."""

    def __init__(self, fn, vocab):
        self.fn = fn
        self.vocab = vocab

    def score_candidates(self, hyp, ctx):
        return np.array([self.fn(hyp.tokens, y) for y in range(self.vocab)],
                        dtype=np.float64)


class RegressorScorer(Scorer):
    """qterm = estimator.predict(h_t) on speculative candidate states."""

    def __init__(self, regressor):
        self.regressor = regressor
        self.model = None

    def prepare(self, model, src, ctx):
        self.model = model

    def score_candidates(self, hyp, ctx):
        ids = np.arange(self.model.tgt_vocab)
        h, _, _, _ = self.model.advance(hyp.state, ctx, ids)
        return np.asarray(self.regressor.predict(h), dtype=np.float64)


class LengthScorer(RegressorScorer):
    """qterm = -((L - t) - Qhat(h_t))^2 with speculative per-candidate h_t."""

    def __init__(self, regressor, length):
        if length is None:
            raise ConfigError("length_q decoding requires a target length L")
        super().__init__(regressor)
        self.length = int(length)

    def score_candidates(self, hyp, ctx):
        qhat = super().score_candidates(hyp, ctx)
        remaining = self.length - (len(hyp.tokens) + 1)
        return -((remaining - qhat) ** 2)


class _Hyp:
    __slots__ = ("tokens", "cum", "state", "next_logprobs", "scorer_state",
                 "qterm", "combined")

    def __init__(self, tokens, cum, state, next_logprobs, scorer_state,
                 qterm, combined):
        self.tokens = tokens
        self.cum = cum
        self.state = state
        self.next_logprobs = next_logprobs
        self.scorer_state = scorer_state
        self.qterm = qterm
        self.combined = combined


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


def _hyp_key(item):
    return (-item[0], item[1])


class _Engine:
    """Shared expansion machinery for beam, protocol, and exhaustive modes."""

    def __init__(self, model, scorer, src, config, prefix=()):
        self.model = model
        self.scorer = scorer
        self.config = config
        self.weight = config.weight if scorer is not None else 0.0
        self.ctx, state0 = model.encode(src)
        if scorer is not None:
            scorer.prepare(model, src, self.ctx)
        logprobs, state = model.decode_step(state0, BOS, self.ctx)
        sstate = scorer.start() if scorer else None
        cum = 0.0
        for tok in prefix:
            if tok in (PAD, BOS, EOS):
                raise ContractError(f"prefix may only hold content tokens, "
                                    f"got {tok}")
            cum += float(logprobs[tok])
            logprobs, state = model.decode_step(state, tok, self.ctx)
            if scorer is not None:
                sstate = scorer.advance(sstate, tok)
        self.root = _Hyp(tuple(prefix), cum, state, logprobs, sstate, 0.0, cum)

    def expand(self, live, allow_content=True, allow_eos=True):
        """All candidate extensions: (combined, tokens, parent, y, cum, qterm)."""
        out = []
        for hyp in live:
            if self.weight != 0.0:
                qvec = np.asarray(
                    self.scorer.score_candidates(hyp, self.ctx), dtype=np.float64)
                if not np.isfinite(qvec).all():
                    # a NaN would make every comparison in the sort false
                    raise ContractError("scorer returned a non-finite qterm")
            else:
                qvec = np.zeros(self.model.tgt_vocab, dtype=np.float64)
            base = hyp.cum + hyp.next_logprobs.astype(np.float64)
            combined = base + self.weight * qvec
            for y in range(self.model.tgt_vocab):
                if y in (PAD, BOS):
                    continue
                if y == EOS:
                    if not allow_eos:
                        continue
                elif not allow_content:
                    continue
                out.append((float(combined[y]), hyp.tokens + (y,), hyp, y,
                            float(base[y]), float(qvec[y])))
        return out

    def settle(self, chosen):
        """Split chosen candidates into (new live hyps, finished DecodedHyps)."""
        live, finished = [], []
        for combined, tokens, parent, y, cum, qterm in chosen:
            if y == EOS:
                finished.append(DecodedHyp(tokens, cum, qterm, combined))
            else:
                logprobs, state = self.model.decode_step(parent.state, y, self.ctx)
                sstate = (self.scorer.advance(parent.scorer_state, y)
                          if self.scorer is not None else None)
                live.append(_Hyp(tokens, cum, state, logprobs, sstate,
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
        cands = eng.expand(live, allow_content=pos <= cap)
        if not cands:
            break
        cands.sort(key=_hyp_key)
        live, finished = eng.settle(cands[:limit] if limit else cands)
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


def _admitted_eos(cands, beam):
    """EOS candidates ranked within the top `beam` of their own parent.

    cands is sorted by _hyp_key, so each parent's extensions appear in
    that parent's own rank order.
    """
    seen = Counter()
    admitted = []
    for combined, tokens, parent, y, cum, qterm in cands:
        seen[id(parent)] += 1
        if y == EOS and seen[id(parent)] <= beam:
            admitted.append(DecodedHyp(tokens, cum, qterm, combined))
    return admitted


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
        cands = eng.expand(live, allow_content=pos <= cap,
                           allow_eos=pos > length)
        if not cands:
            break
        cands.sort(key=_hyp_key)
        if pos == length + 1:
            admitted = _admitted_eos(cands, config.beam)
            if admitted:
                # footnote rule: the pool competes on likelihood, not
                # combined score
                return min(admitted, key=lambda h: (-h.logp, h.tokens))
        live, finished = eng.settle(cands[:config.beam])
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
