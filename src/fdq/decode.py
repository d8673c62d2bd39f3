"""Beam search with pluggable per-step value scoring.

One engine and one loop over positions (`Engine.search`) drive every
mode; the length protocol is that loop given a demanded length.  A forced
token takes the same step with one chosen candidate (`Engine.force`), so
a search runs on from a forced prefix as from the root.  At each step
every live hypothesis is expanded over the candidate vocabulary; each
candidate's combined score is

    combined = cumulative log p(prefix + y | X) + weight * qterm(y)

where qterm is the scorer's fresh estimate for the extended prefix.  The
previous step's q contribution is replaced, never accumulated: Q estimates
the same future quantity at every step, and summing estimates of one
quantity would double-count it.  The exhaustive oracle is the same
search with a beam wider than any step's candidates, so score arithmetic
agrees bitwise and ties resolve identically.

The live beam is kept as rows of one length in token order, so a step is
batched: a scorer call, a sort, a cell call or gather and a readout cover it.

A scorer with a `ceiling` scores a step in two phases.  With bound =
base + weight * ceiling, the first guesses tau, the `beam`-th best base +
weight * min(parent's admitted qterm, ceiling), and scores the candidates
with bound >= guess - GUESS_MARGIN; the second, those others with bound
>= tau, the `beam`-th best combined so far.  Each skipped one ranks below
`beam` scored ones, so the search is full scoring's whatever the guess.

Ties everywhere: higher combined score first, then the lexicographically
smaller token tuple (lower token id, then shorter prefix); a search
returns its n-best as a list of DecodedHyps in that order.

PAD and BOS are never candidates; UNK is an ordinary decodable token.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace

import numpy as np

# rescore_nbest looks batch_logprobs up on seq2seq, where fdqbench wraps it
from . import seq2seq
from .autodiff import Tensor, log_softmax
from .data import BOS, EOS, PAD, SequencePair
from .errors import ConfigError, ContractError, SearchSpaceError
from .seq2seq import DecoderState

MODES = ("sbs", "length_q", "mmi_q", "outcome_q", "mmi_rerank", "exhaustive")
GUIDED_MODES = ("length_q", "mmi_q", "outcome_q")

EXHAUSTIVE_GUARD = 10 ** 6

# A row batched into a K-row matmul rounds differently in float32 than the
# row alone: by 1e-6 to 8e-6 in log p for trained lab models, within this.
# A kept row rounds as in the cell call that scored it, then its K-row
# readout; two-phase scoring's batch sizes, which follow the guessed tau,
# move length_q and mmi_q floats.
BATCH_ATOL = 1e-5

# A child's qterm is often a little below its parent's, so the first phase
# reaches this far below the guessed tau and the second seldom runs; no
# guess passes the bound of the top `beam` by base, so it holds them all.
GUESS_MARGIN = 1.0


@dataclass
class DecodeConfig:
    mode: str = "sbs"
    beam: int = 7
    weight: float = 1.0
    length: int = None          # target length L for the length protocol
    cap: int = None             # max content tokens; defaults to model.max_len
    mask_eos: bool = True       # length protocol: forbid EOS before L+1
    use_length_protocol: bool = False  # apply the L+1 protocol in sbs mode
    emit_timings: bool = False  # keep "ms" fields at 0.0 unless set

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.beam < 1:
            raise ConfigError(f"beam size must be >= 1, got {self.beam}")
        if not 0 <= self.weight <= sys.float_info.max:
            raise ConfigError(
                f"weight must be finite and >= 0, got {self.weight}")
        if self.length is not None and self.length < 1:
            raise ConfigError(f"target length must be >= 1, got {self.length}")
        if self.cap is not None and self.cap < 0:
            raise ConfigError(f"cap must be >= 0, got {self.cap}")
        return self


class CallableScorer:
    """Adapts fn(prefix_tuple, candidate_id) -> float; for tests and demos."""

    ceiling = None

    def __init__(self, fn, vocab):
        self.fn = fn
        self.vocab = vocab

    def score_candidates(self, beam, ctx, cand):
        return np.array([self.fn(beam.tokens[i // self.vocab], i % self.vocab)
                         for i in cand.tolist()], dtype=np.float64), None


class RegressorScorer:
    """qterm = estimator.predict(h_t) on the candidates' decoder states."""

    ceiling = None

    def __init__(self, regressor):
        self.regressor = regressor

    def score_candidates(self, beam, ctx, cand):
        return self.regressor.predict(beam.children(ctx, cand)[0]), None


class LengthScorer(RegressorScorer):
    """qterm = -((L - t) - Qhat(h_t))^2 with speculative per-candidate h_t."""

    ceiling = 0.0  # a negated square

    def __init__(self, regressor, length):
        if length is None:
            raise ConfigError("length_q decoding requires a target length L")
        super().__init__(regressor)
        self.length = int(length)

    def score_candidates(self, beam, ctx, cand):
        qhat, rows = super().score_candidates(beam, ctx, cand)
        remaining = self.length - (len(beam.tokens[0]) + 1)
        return -((remaining - qhat) ** 2), rows


@dataclass(slots=True, eq=False)
class _Beam:
    """The live hypotheses as rows, in token order; all of one length."""

    tokens: list           # B token tuples
    cum: np.ndarray        # [B] float64 cumulative log p
    qterm: np.ndarray      # [B] float64 qterm each row was admitted with
    state: DecoderState    # [B,H] decoder rows
    logprobs: np.ndarray   # [B,V] next-token log-probs
    scorer_rows: object    # the scorer's rows, or None
    advanced: list = None  # children()'s (cand, (h, c)) batches

    def __len__(self):
        return len(self.tokens)

    def children(self, ctx, cand):
        """The decoder cell's [K,H] (h, c) of the flat candidate ids cand;
        settle gathers the kept rows from them and reads out only those."""
        parents, ys = np.divmod(cand, ctx.owner.tgt_vocab)
        h, c = ctx.owner.advance(self.state.take(parents), ctx, ys)
        self.advanced = [*(self.advanced or ()), (cand, (h, c))]
        return h, c


@dataclass
class DecodedHyp:
    """A finished hypothesis with its score decomposition."""

    tokens: tuple      # includes the terminating EOS
    logp: float
    q_term: float
    combined: float

    @property
    def content(self):
        return self.tokens[:-1]

    def __len__(self):
        return len(self.content)


class Engine:
    """Shared expansion machinery for beam, protocol, and exhaustive modes.

    A candidate is a (parent row, y) pair of the live _Beam.  The beam is
    kept in token order, so a parent's row is its rank.  root is the beam
    after BOS; force extends a beam by a chosen token, and search runs on
    from any beam.

    A scorer, consulted only at a nonzero weight, has a `ceiling` (None or
    a bound on its qterms) and one method: score_candidates(beam, ctx,
    cand) takes flat candidate ids b*V + y, never PAD or BOS, and returns
    (qterm[k] of extending row b by y for cand[k], EOS scored like any
    token; None or the scorer's rows of cand's content candidates).  The
    source is ctx.src and the root has no scorer rows, so a scorer serves
    any number of searches.
    """

    def __init__(self, model, scorer, src, config):
        self.model = model
        ids = np.arange(model.tgt_vocab)
        ids = ids[(ids != PAD) & (ids != BOS)]
        self.ids = {(content, eos): ids[np.where(ids == EOS, eos, content)]
                    for content in (False, True) for eos in (False, True)}
        self.weight = config.weight if scorer is not None else 0.0
        self.scorer = scorer
        self.ctx, state = model.encode(src)
        logprobs, state = model.decode_step(state, BOS, self.ctx)
        self.root = _Beam([()], np.zeros(1), np.zeros(1), state,
                          logprobs[None], None)

    def expand(self, beam, allow_content=True, allow_eos=True, limit=None):
        """[B, V] float64 (base, qterm, combined) of every extension, the
        ids that may be candidates now, and None or the scorer's (cand,
        rows) batches.  Given a limit, a scorer with a ceiling scores what
        the parents' admitted qterms say may rank in the top `limit`, then
        the rest that still can; the others have combined -inf."""
        base = beam.cum[:, None] + beam.logprobs.astype(np.float64)
        ids = self.ids[allow_content, allow_eos]
        if self.weight == 0.0:  # base + 0 * qterm, bit for bit
            return base, np.zeros_like(base), base, ids, None
        cand = (np.arange(len(beam))[:, None] * base.shape[1] + ids).ravel()
        qterm, combined = np.zeros_like(base), np.full_like(base, -np.inf)
        ceiling, first = self.scorer.ceiling, cand
        if ceiling is not None and limit is not None and limit < len(cand):
            bound = base.take(cand) + self.weight * ceiling
            guess = np.partition((base + self.weight * np.minimum(
                beam.qterm, ceiling)[:, None]).take(cand), -limit)[-limit]
            first = cand[bound >= guess - GUESS_MARGIN]
        batches = [self._score(beam, first, base, qterm, combined)]
        if len(first) < len(cand):  # the second phase
            tau = np.partition(combined.take(first), -limit)[-limit]
            rest = cand[(combined.take(cand) == -np.inf) & (bound >= tau)]
            if len(rest):
                batches.append(self._score(beam, rest, base, qterm, combined))
        return base, qterm, combined, ids, batches if batches[0] else None

    def _score(self, beam, cand, base, qterm, combined):
        """Score candidates cand into qterm and combined; the scorer's rows
        as (cand's content candidates, rows), or None."""
        q, rows = self.scorer.score_candidates(beam, self.ctx, cand)
        q = np.asarray(q, dtype=np.float64)
        if q.shape != cand.shape:
            raise ContractError(f"scorer returned shape {q.shape}, "
                                f"want {cand.shape}")
        total = base.take(cand) + self.weight * q
        if not np.isfinite(total).all():
            # NaN or -inf scores would be ranked by position, not score
            what = ("a non-finite qterm" if not np.isfinite(q).all()
                    else f"a qterm that overflows at weight {self.weight}")
            raise ContractError(f"scorer returned {what}")
        if self.scorer.ceiling is not None and (q > self.scorer.ceiling).any():
            raise ContractError("scorer returned a qterm above its ceiling")
        qterm.put(cand, q)
        combined.put(cand, total)
        return None if rows is None else (cand[cand % base.shape[1] != EOS], rows)

    def ranked(self, scores, limit=None):
        """(parent rows, ys) of the best `limit` candidates (all if None) of
        an expansion, best first.

        Ranked by combined score, then the parent's row, then y: the tie
        rule, because beam rows share a length and are in token order.  A
        stable sort keeps ties in the row-major (row, y) order.
        """
        _, _, combined, ids, _ = scores
        pick = np.argsort(-combined[:, ids].ravel(), kind="stable")[:limit]
        return pick // len(ids), ids[pick % len(ids)]

    def settle(self, beam, scores, chosen):
        """Split chosen (parent rows, ys) into (new beam, finished DecodedHyps).

        The content candidates form the new beam in token order, or None
        if there are none; the finished keep the chosen order.  Their rows
        are gathered from the scored candidates', the scorer's and, if made,
        the decoder cell's; else one advance makes the cell's.  One readout
        of the kept rows gives their feed and next log-probs.
        """
        base, qterm, _, _, rows = scores
        parents, ys = chosen
        finished = _finished(beam, scores, parents[ys == EOS].tolist())
        order = np.lexsort((ys, parents))
        grow = order[ys[order] != EOS]
        if not len(grow):
            return None, finished
        parents, ys = parents[grow], ys[grow]
        kept = parents * self.model.tgt_vocab + ys
        h, c = (self.model.advance(beam.state.take(parents), self.ctx, ys)
                if beam.advanced is None else _gather(beam.advanced, kept))
        feed, logits = self.model.readout(h, self.ctx)
        live = _Beam([beam.tokens[i] + (y,) for i, y in
                      zip(parents.tolist(), ys.tolist())],
                     base[parents, ys], qterm[parents, ys],
                     DecoderState(h, c, feed, self.model),
                     log_softmax(Tensor(logits)).data,
                     None if rows is None else _gather(rows, kept))
        return live, finished

    def force(self, beam, tok):
        """The one-row beam that extends row 0 of beam by content token tok,
        scored and advanced by the step a searched candidate takes."""
        if tok not in self.ids[True, False]:
            raise ContractError(f"cannot force non-content token {tok}")
        scores = self.expand(beam)
        return self.settle(beam, scores, (np.zeros(1, np.int64),
                                          np.array([tok], np.int64)))[0]

    def search(self, live, config, length=None):
        """The best `beam` finished DecodedHyps of a search from
        the live beam, by (-combined, tokens); the only loop over positions.

        Positions start after the live beam's length.  It ends once `beam`
        hypotheses have finished.  A demanded length L bars EOS before
        position L+1, where the rows with EOS in their own top `beam` are
        admitted and the best log p among them is the only entry; if none
        is, the first step that finishes anything ends it.
        """
        start = len(live.tokens[0])
        cap = config.cap if config.cap is not None else self.model.max_len
        cap = max(cap, start, 0 if length is None else length + 1)
        pool = []
        stop = config.beam if length is None else 1
        for pos in range(start + 1, cap + 2):
            # EOS's rank within its own row reads every candidate
            admit = length is not None and pos == length + 1
            scores = self.expand(live, allow_content=pos <= cap,
                                 allow_eos=length is None or pos > length,
                                 limit=None if admit else config.beam)
            if admit:
                admitted = _admitted_eos(live, scores, config.beam)
                if admitted:
                    # footnote rule: the pool competes on likelihood, not
                    # combined score
                    pool = [min(admitted, key=lambda h: (-h.logp, h.tokens))]
                    break
            live, finished = self.settle(live, scores,
                                         self.ranked(scores, config.beam))
            pool.extend(finished)
            if len(pool) >= stop:
                break
        pool.sort(key=lambda h: (-h.combined, h.tokens))
        return pool[:config.beam]


def _gather(batches, want):
    """The rows of the candidates want from (cand, rows) batches."""
    ids = np.concatenate([cand for cand, _ in batches])
    order = np.argsort(ids)
    at = order[np.searchsorted(ids, want, sorter=order)]
    return tuple(np.concatenate(r)[at] for r in zip(*(r for _, r in batches)))


def _finished(beam, scores, rows):
    """The DecodedHyps that close the given beam rows with EOS."""
    base, qterm, combined, _, _ = scores
    return [DecodedHyp(beam.tokens[i] + (EOS,), float(base[i, EOS]),
                       float(qterm[i, EOS]), float(combined[i, EOS]))
            for i in rows]


def _admitted_eos(beam, scores, limit):
    """EOS extensions ranked within the top `limit` of their own parent;
    EOS wins its ties, as the lowest candidate id (PAD, BOS never are)."""
    _, _, combined, ids, _ = scores
    rank = (combined[:, ids] > combined[:, EOS:EOS + 1]).sum(axis=1)
    return _finished(beam, scores, np.flatnonzero(rank < limit).tolist())


def _run(model, scorer, src, config, length=None):
    """Engine.search from the root of a fresh engine over src."""
    config.validate()
    eng = Engine(model, scorer, src, config)
    return eng.search(eng.root, config, length)


def beam_search(model, src, config=None):
    """Standard beam search ranked by cumulative log-probability."""
    return _run(model, None, src, config or DecodeConfig())


def guided_beam_search(model, scorer, src, config):
    """Beam search ranked by log p + weight * qterm at every step."""
    return _run(model, scorer, src, config)


def exhaustive_decode(model, scorer, src, config=None):
    """Global argmax of the combined objective over all capped sequences.

    Refuses search spaces beyond |V|^cap = 10^6; memory grows with the
    live frontier, so in practice keep |V| and cap tiny.  A beam of
    |V|^cap exceeds every step's candidates and every finished sequence,
    so the search never cuts.
    """
    config = config or DecodeConfig(mode="exhaustive")
    return _run(model, scorer, src, _exhaustive(model, config))[0]


def _exhaustive(model, config):
    """config at the exhaustive beam |V|^cap, if within EXHAUSTIVE_GUARD."""
    cap = config.cap if config.cap is not None else model.max_len
    if model.tgt_vocab ** cap > EXHAUSTIVE_GUARD:
        raise SearchSpaceError(
            f"search space {model.tgt_vocab}^{cap} exceeds {EXHAUSTIVE_GUARD}")
    return replace(config, beam=model.tgt_vocab ** cap)


def length_forced_select(model, regressor, src, length, config=None):
    """Decode a sequence of exactly length L when the model permits it:
    _run under the length protocol, or, with config.mask_eos false (the
    ablation arm), plain search that only the scorer (if any) pulls to L."""
    config = config or DecodeConfig(mode="length_q")
    if length is None or length < 1:
        raise ConfigError(f"target length must be >= 1, got {length}")
    scorer = LengthScorer(regressor, length) if regressor is not None else None
    return _run(model, scorer, src, config,
                length=length if config.mask_eos else None)[0]


NEG_SENTINEL = -1e30  # stands in for -inf; keeps scores finite and JSON-safe


def rescore_nbest(entries, backward, src, weight):
    """Combine forward log p with exact backward log p(X|Y) for a list.

    The entries with content are scored in one batched pass, so a score
    matches a width-1 replay up to BATCH_ATOL; an empty hypothesis cannot
    explain X and scores NEG_SENTINEL.
    """
    tgt = list(src) + [EOS]
    backs = iter(seq2seq.batch_logprobs(backward, [
        SequencePair(list(h.content), tgt) for h in entries if h.content]))
    rescored = []
    for h in entries:
        back = next(backs) if h.content else NEG_SENTINEL
        combined = h.logp + weight * back
        if not np.isfinite(combined):
            # -inf scores would tie and be ranked by tokens, not score
            raise ContractError(f"rerank score overflows at weight {weight}")
        rescored.append(DecodedHyp(h.tokens, h.logp, back, combined))
    rescored.sort(key=lambda h: (-h.combined, h.tokens))
    return rescored


def mmi_rerank(forward, backward, src, config):
    """N-best from forward beam search, reranked by log p + w*log p(X|Y)."""
    rescored = rescore_nbest(beam_search(forward, src, config), backward, src,
                             config.weight)
    return rescored[0], rescored


def decode_corpus(model, corpus, config, scorer_factory=None, backward=None):
    """Decode every pair; returns (records, stats).

    scorer_factory(pair) builds the per-pair scorer for guided modes; for
    length_q it returns the remaining-length regressor.  A failing pair,
    including one whose combined score is not finite, becomes an error
    record and decoding continues.  The "ms" field stays 0.0 unless
    config.emit_timings is set, so reruns are byte-for-byte reproducible
    by default.
    """
    config.validate()
    if config.mode in GUIDED_MODES and scorer_factory is None:
        raise ConfigError(f"{config.mode} decoding requires a scorer factory")
    if config.mode == "mmi_rerank" and backward is None:
        raise ConfigError("mmi_rerank requires a backward model")
    if config.mode == "exhaustive":  # one size check for every pair
        config = _exhaustive(model, config)
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
    if mode == "sbs":
        return beam_search(model, pair.src, config)[0]
    # exhaustive too: decode_corpus set its beam
    return guided_beam_search(model, scorer, pair.src, config)[0]
