"""Search engine contracts: oracle equivalence, reductions, tie rules."""

import itertools
from collections import Counter

import numpy as np
import pytest

from fdq.autodiff import Tensor, log_softmax
from fdq.data import (BOS, EOS, PAD, UNK, SequencePair, TaskSpec, gen_task,
                      pad_ids)
from fdq.decode import (BATCH_ATOL, CallableScorer, DecodeConfig, Engine,
                        LengthScorer, _admitted_eos, _Beam, beam_search,
                        decode_corpus, exhaustive_decode, guided_beam_search,
                        length_forced_select, mmi_rerank, rescore_nbest)
from fdq.errors import ConfigError, ContractError, SearchSpaceError
from fdq.seeding import stream_key
from fdq.seq2seq import (Seq2Seq, TrainSchedule, batch_logprobs, train_mle,
                         _param_shapes)
from fdq.value import (LengthRegressor, OutcomePredictor, OutcomeScorer,
                       PartialBackwardEnsemble, PartialBackwardScorer)
from reference import length_forced_select as reference_protocol
from reference import (ReencodingBackwardScorer, lexsort_ranked,
                       replayed_root, step_logprobs)


def tiny_model(seed=0, vs=6, vt=6, hidden=3):
    return Seq2Seq(vs, vt, hidden=hidden, attention=True, max_len=8, seed=seed)


def uniform_model(vs=9, vt=9, hidden=3):
    shapes = _param_shapes(vs, vt, hidden, False)
    params = {name: Tensor(np.zeros(shape)) for name, shape in shapes}
    return Seq2Seq(vs, vt, hidden=hidden, attention=False, params=params)


def bigram_model(table, vs=6):
    """A model whose next-token log-probs are log_softmax(table[last token]).

    The decoder forgets all but the token it just consumed: the g gate
    writes its one-hot into c, the f gate clears c, w_hh is zero, and
    h = tanh(onehot) feeds an output layer holding the table.
    """
    vt = table.shape[0]
    p = {name: np.zeros(shape)
         for name, shape in _param_shapes(vs, vt, vt, False)}
    p["tgt_embed"] = 10.0 * np.eye(vt)
    p["dec/w_ih"][2 * vt:3 * vt] = np.eye(vt)
    p["dec/b"][:vt] = 20.0
    p["dec/b"][vt:2 * vt] = -20.0
    p["dec/b"][3 * vt:] = 20.0
    p["out/w"] = table.T / np.tanh(1.0)
    return Seq2Seq(vs, vt, hidden=vt, attention=False, max_len=8,
                   params={name: Tensor(v) for name, v in p.items()})


def bounded_random_scorer(vocab, tag):
    def fn(prefix, y):
        return (stream_key("q", tag, *prefix, y) % 997) / 997.0 - 0.5

    return CallableScorer(fn, vocab)


class ConstantRegressor:
    """predict() returns a fixed value; stands in for a trained head."""

    def __init__(self, value):
        self.value = value

    def predict(self, h):
        return np.full(h.shape[0], self.value, dtype=np.float64)


class TestBeamSearch:
    def test_b1_is_greedy(self):
        m = tiny_model(1)
        src = [4, 5]
        top = beam_search(m, src, DecodeConfig(beam=1)).top()
        ctx, state = m.encode(src)
        prev, toks = BOS, []
        for pos in range(1, m.max_len + 2):
            logprobs, state = m.decode_step(state, prev, ctx)
            if pos <= m.max_len:
                allowed = [(float(-logprobs[y]), y) for y in range(m.tgt_vocab)
                           if y not in (0, 1)]
            else:
                allowed = [(float(-logprobs[EOS]), EOS)]
            y = min(allowed)[1]
            toks.append(y)
            if y == EOS:
                break
            prev = y
        assert list(top.tokens) == toks

    def test_deterministic(self):
        m = tiny_model(2)
        a = beam_search(m, [4, 5], DecodeConfig(beam=3))
        b = beam_search(m, [4, 5], DecodeConfig(beam=3))
        assert [h.tokens for h in a.entries] == [h.tokens for h in b.entries]
        assert [h.combined for h in a.entries] == [h.combined for h in b.entries]

    def test_matches_exhaustive_when_beam_covers_space(self):
        for seed in range(6):
            m = tiny_model(seed)
            cfg = DecodeConfig(beam=400, cap=4)
            top = beam_search(m, [4, 5], cfg).top()
            oracle = exhaustive_decode(m, None, [4, 5], DecodeConfig(cap=4))
            assert top.tokens == oracle.tokens
            assert top.combined == oracle.combined

    def test_nbest_sorted_and_ends_with_eos(self):
        m = tiny_model(3)
        out = beam_search(m, [4], DecodeConfig(beam=5))
        scores = [h.combined for h in out.entries]
        assert scores == sorted(scores, reverse=True)
        assert all(h.tokens[-1] == EOS for h in out.entries)

    def test_cum_logp_matches_sequence_logprob(self):
        m = tiny_model(4)
        for h in beam_search(m, [4, 5], DecodeConfig(beam=4)).entries:
            want = sum(step_logprobs(m, [4, 5], list(h.tokens)))
            assert h.logp == pytest.approx(want, abs=BATCH_ATOL)

    def test_step_scores_nonpositive(self):
        m = tiny_model(5)
        top = beam_search(m, [4, 5], DecodeConfig(beam=3)).top()
        steps = step_logprobs(m, [4, 5], list(top.tokens))
        assert all(lp <= 0 for lp in steps)

    def test_uniform_model_tie_breaks_lexicographically(self):
        m = uniform_model()
        out = beam_search(m, [4], DecodeConfig(beam=4, cap=3))
        # all single-step scores equal, so the shortest sequence wins and
        # ties resolve toward smaller token tuples
        assert out.top().tokens == (EOS,)
        assert [h.tokens for h in out.entries] == [
            (EOS,), (3, EOS), (3, 3, EOS), (3, 3, 3, EOS)]
        # ids 2..4 only: step 2 ties all six extensions of (3,) and (4,),
        # and the beam of 4 cuts after (4, EOS), inside that tied run
        m = uniform_model(vt=5)
        out = beam_search(m, [4], DecodeConfig(beam=4, nbest=5))
        assert [h.tokens for h in out.entries] == [
            (EOS,), (3, EOS), (4, EOS), (3, 3, EOS), (3, 4, EOS)]
        # the same cut when the live beam is not in token order: a step-1
        # bonus puts (4,) ahead of (3,), then every step-2 score ties again,
        # so the smaller parent tuple (3,) must still fill the beam first
        bonus = CallableScorer(lambda prefix, y: float(prefix == () and y == 4),
                               5)
        cfg = DecodeConfig(mode="mmi_q", beam=4, nbest=5, weight=1.0)
        out = guided_beam_search(m, bonus, [4], cfg)
        assert [h.tokens for h in out.entries] == [
            (EOS,), (3, EOS), (4, EOS), (3, 3, EOS), (3, 4, EOS)]


class TestGuidedBeam:
    def test_weight_zero_reduces_to_sbs(self):
        for seed in range(4):
            m = tiny_model(seed)
            scorer = bounded_random_scorer(m.tgt_vocab, seed)
            cfg = DecodeConfig(mode="mmi_q", beam=3, weight=0.0)
            guided = guided_beam_search(m, scorer, [4, 5], cfg)
            plain = beam_search(m, [4, 5], DecodeConfig(beam=3))
            assert [h.tokens for h in guided.entries] == \
                   [h.tokens for h in plain.entries]

    def test_oracle_q_steers_first_token(self):
        m = uniform_model(vt=9)
        lure = 7

        def fn(prefix, y):
            seq = prefix + (y,)
            return 10.0 if seq and seq[0] == lure else 0.0

        cfg = DecodeConfig(mode="mmi_q", beam=3, weight=1.0, cap=4)
        top = guided_beam_search(m, CallableScorer(fn, 9), [4], cfg).top()
        assert top.tokens[0] == lure

    def test_matches_exhaustive_with_scorer(self):
        for seed in range(6):
            m = tiny_model(seed, vt=6)
            scorer = bounded_random_scorer(m.tgt_vocab, seed)
            cfg = DecodeConfig(mode="mmi_q", beam=400, weight=0.7, cap=4)
            top = guided_beam_search(m, scorer, [4, 5], cfg).top()
            oracle = exhaustive_decode(
                m, bounded_random_scorer(m.tgt_vocab, seed), [4, 5],
                DecodeConfig(mode="mmi_q", weight=0.7, cap=4))
            assert top.tokens == oracle.tokens
            assert top.combined == oracle.combined

    def test_score_decomposition(self):
        m = tiny_model(7)
        scorer = bounded_random_scorer(m.tgt_vocab, 7)
        cfg = DecodeConfig(mode="mmi_q", beam=4, weight=0.9)
        for h in guided_beam_search(m, scorer, [4, 5], cfg).entries:
            assert h.combined == pytest.approx(h.logp + 0.9 * h.q_term, abs=1e-5)

    def test_q_term_is_latest_not_accumulated(self):
        m = tiny_model(8)

        def fn(prefix, y):
            return float(len(prefix) + 1)  # grows with position

        cfg = DecodeConfig(mode="mmi_q", beam=2, weight=0.5)
        top = guided_beam_search(m, CallableScorer(fn, m.tgt_vocab), [4], cfg).top()
        # the reported q_term is the estimate made when EOS was chosen,
        # i.e. fn at the final position, not a sum over positions
        assert top.q_term == float(len(top.tokens))
        assert top.combined == pytest.approx(top.logp + 0.5 * top.q_term, abs=1e-6)


def live_beam(model, scorer, src, steps, beam=4):
    """The engine and its live beam after `steps` EOS-free steps."""
    eng = Engine(model, scorer, src,
                 DecodeConfig(mode="mmi_q", beam=beam, weight=1.0))
    live = eng.root
    for _ in range(steps):
        scores = eng.expand(live, allow_eos=False)
        live, _ = eng.settle(live, scores, eng.ranked(scores, beam))
    return eng, live


def beam_row(live, b):
    """Row b of a live beam as a one-row beam."""
    rows = [b]
    scorer = (None if live.scorer_rows is None
              else tuple(r[rows] for r in live.scorer_rows))
    return _Beam([live.tokens[b]], live.cum[rows], live.qterm[rows],
                 live.state.take(rows), live.logprobs[rows], scorer)


def reference_candidates(live, scores, allow_content=True, allow_eos=True):
    """The tuple-per-candidate expansion, sorted by (-combined, tokens).

    A candidate is (combined, tokens, parent row, y, cum, qterm).
    """
    base, qterm, combined, *_ = scores
    out = []
    for i, tokens in enumerate(live.tokens):
        for y in range(combined.shape[1]):
            if y in (PAD, BOS) or (y == EOS and not allow_eos) or \
                    (y != EOS and not allow_content):
                continue
            out.append((float(combined[i, y]), tokens + (y,), i, y,
                        float(base[i, y]), float(qterm[i, y])))
    out.sort(key=lambda c: (-c[0], c[1]))
    return out


def chosen(cands):
    """The (parent rows, ys) arrays of a list of reference candidates."""
    return (np.array([c[2] for c in cands], dtype=np.int64),
            np.array([c[3] for c in cands], dtype=np.int64))


def reference_admitted(cands, beam):
    """EOS candidates within the top `beam` of their parent, by counting."""
    seen = Counter()
    admitted = []
    for combined, tokens, parent, y, cum, qterm in cands:
        seen[parent] += 1
        if y == EOS and seen[parent] <= beam:
            admitted.append((tokens, cum, qterm, combined))
    return sorted(admitted)


class TestBatchedStep:
    def test_ranking_matches_tuple_sort(self):
        # coarse scores tie often, within and across parents, and on the
        # uniform model every step's log-probs tie too, EOS included
        for seed in range(8):
            m = tiny_model(seed, vt=7) if seed % 2 else uniform_model(vt=7)
            scorer = CallableScorer(
                lambda prefix, y, s=seed: float(stream_key(s, *prefix, y) % 3),
                7)
            eng = Engine(m, scorer, [4, 5],
                         DecodeConfig(mode="mmi_q", beam=4, weight=1.0))
            live = eng.root
            for pos in range(1, 5):
                flags = dict(allow_content=pos < 4, allow_eos=pos > 1)
                scores = eng.expand(live, **flags)
                want = reference_candidates(live, scores, **flags)
                for limit, cut in ((None, want), (4, want[:4])):
                    parents, ys = eng.ranked(scores, limit)
                    assert list(zip(parents.tolist(), ys.tolist())) == \
                        [(c[2], c[3]) for c in cut]
                for beam in (1, 3) if flags["allow_eos"] else ():
                    got = sorted((h.tokens, h.logp, h.q_term, h.combined)
                                 for h in _admitted_eos(live, scores, beam))
                    assert got == reference_admitted(want, beam)
                live, _ = eng.settle(live, scores, chosen(want[:4]))

    @pytest.mark.parametrize("allow_content, allow_eos",
                             [(True, True), (True, False), (False, True)])
    def test_ranking_matches_lexsort(self, allow_content, allow_eos):
        # four values over 4 rows x 9 ids: exact ties within a row, across
        # rows and, with 0.0 and -0.0, across signs
        eng = Engine(tiny_model(vt=9), None, [4, 5], DecodeConfig(beam=3))
        ids = eng.ids[allow_content, allow_eos]
        r = np.random.default_rng(7)
        for _ in range(20):
            combined = r.choice([0.0, -0.0, -1.5, -1e30], size=(4, 9))
            scores = (None, None, combined, ids, None)
            for limit in (None, 1, 3, 40):
                got, want = eng.ranked(scores, limit), lexsort_ranked(
                    scores, limit)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_advance_over_stacked_states_matches_decode_step(self):
        m = tiny_model(3, vt=9, hidden=8)
        eng, live = live_beam(m, None, [4, 5, 3], 2)
        ys = [3 + k for k in range(len(live))]
        h, _ = m.advance(live.state, eng.ctx, ys)
        logprobs = log_softmax(Tensor(m.readout(h, eng.ctx)[1])).data
        for k in range(len(live)):
            want, state = m.decode_step(live.state.take(k), ys[k], eng.ctx)
            np.testing.assert_allclose(logprobs[k], want, rtol=0,
                                       atol=BATCH_ATOL)
            np.testing.assert_allclose(h[k], state.h, rtol=0, atol=BATCH_ATOL)

    def test_kept_readout_matches_candidate_readout(self):
        # settle gathers the kept rows' cell states from the B*V candidates
        # the scorer read, and reads out only those rows as one K-row
        # batch; each agrees with its row of a readout over all B*V
        m = tiny_model(3, vt=9, hidden=8)
        scorer = LengthScorer(LengthRegressor(8, seed=2), 4)
        eng, live = live_beam(m, scorer, [4, 5, 3], 2)
        scores = eng.expand(live, allow_eos=False)
        h, c = live.children(eng.ctx)
        feed, logits = m.readout(h, eng.ctx)
        parents, ys = eng.ranked(scores, 4)
        nxt, _ = eng.settle(live, scores, (parents, ys))
        order = np.lexsort((ys, parents))
        kept = parents[order] * m.tgt_vocab + ys[order]
        np.testing.assert_array_equal(nxt.state.h, h[kept])
        np.testing.assert_array_equal(nxt.state.c, c[kept])
        logprobs = log_softmax(Tensor(logits[kept])).data
        for got, want in ((nxt.state.feed, feed[kept]),
                          (nxt.logprobs, logprobs)):
            np.testing.assert_allclose(got, want, rtol=0, atol=BATCH_ATOL)

    def test_beam_rows_follow_their_parents(self):
        # after every step, each beam row's decoder rows, next log-probs
        # and scorer rows equal a replay of its own tokens; coarse scores
        # tie often across parents, and on the uniform model every
        # log-prob ties too.  The outcome scorer's rows come from its
        # B*V prefix step, and its decoder rows from the kept rows'
        # advance; the length scorer read every candidate's decoder
        # advance (children), and the kept decoder rows come from there.
        vt, hidden, src = 9, 8, [4, 5]

        def coarse(base):
            class Coarse(base):
                def score_candidates(self, beam, ctx):
                    qterm, rows = super().score_candidates(beam, ctx)
                    return np.floor(2 * qterm), rows
            return Coarse

        predictor = OutcomePredictor(9, vt, hidden=hidden, seed=3)
        regressor = LengthRegressor(hidden, seed=3)
        for q in (predictor, regressor):
            for t in q.p.values():
                t.data *= 15  # spread the predictions across prefixes
        cases = [  # (scorer factory, models)
            (lambda: coarse(OutcomeScorer)(predictor),
             (uniform_model(vt=vt, hidden=hidden),
              tiny_model(7, vt=vt, hidden=hidden))),
            # on the uniform model every candidate's h ties, so no row moves
            (lambda: coarse(LengthScorer)(regressor, 5),
             (tiny_model(7, vt=vt, hidden=hidden),
              tiny_model(8, vt=vt, hidden=hidden))),
        ]
        for make, models in cases:
            for m in models:
                scorer = make()
                outcome = isinstance(scorer, OutcomeScorer)
                if outcome:
                    source = scorer.q._encode("x", *pad_ids([src])).data
                eng = Engine(m, scorer, src,
                             DecodeConfig(mode="outcome_q", beam=4, weight=1.0))
                live = eng.root
                moved = False
                for _ in range(4):
                    first = live.tokens[0]
                    scores = eng.expand(live, allow_eos=False)
                    assert (live.advanced is None) == outcome
                    live, _ = eng.settle(live, scores, eng.ranked(scores, 4))
                    moved |= any(t[:-1] != first for t in live.tokens)
                    for b, tokens in enumerate(live.tokens):
                        ctx, state = m.encode(src)
                        _, state = m.decode_step(state, BOS, ctx)
                        prefix = [np.zeros((1, hidden), dtype=np.float32)] * 2
                        for tok in tokens:
                            logprobs, state = m.decode_step(state, tok, ctx)
                            if outcome:
                                prefix = scorer.q.step_prefix(prefix, [tok])
                        row = live.state.take(b)
                        pairs = [(row.h, state.h), (row.c, state.c),
                                 (row.feed, state.feed),
                                 (live.logprobs[b], logprobs)]
                        if outcome:
                            h, c, hx = (r[b] for r in live.scorer_rows)
                            pairs += [(h, prefix[0][0]), (c, prefix[1][0]),
                                      (hx, source[0])]
                        else:
                            assert live.scorer_rows is None
                        for got, want in pairs:
                            np.testing.assert_allclose(got, want, rtol=0,
                                                       atol=BATCH_ATOL)
                assert moved  # some row extends a parent other than row 0

    @pytest.mark.parametrize("family", ["callable", "length", "outcome",
                                        "partial_backward"])
    def test_rows_match_single_hypothesis_calls(self, family):
        vt, hidden = 9, 8
        m = tiny_model(4, vt=vt, hidden=hidden)
        scorer = {
            "callable": lambda: bounded_random_scorer(vt, "rows"),
            "length": lambda: LengthScorer(LengthRegressor(hidden, seed=2), 4),
            "outcome": lambda: OutcomeScorer(
                OutcomePredictor(6, vt, hidden=hidden, seed=2)),
            "partial_backward": lambda: PartialBackwardScorer(
                PartialBackwardEnsemble(((1, 1), (2, None)), {
                    0: Seq2Seq(vt, 6, hidden=hidden, seed=5),
                    1: Seq2Seq(vt, 6, hidden=hidden, seed=6)})),
        }[family]()
        for steps in (1, 2):
            eng, live = live_beam(m, scorer, [4, 5], steps)
            assert len(live) > 1
            batch, rows = scorer.score_candidates(live, eng.ctx)
            assert batch.shape == (len(live), vt)
            assert (rows is None) == (family in ("callable", "length"))
            for b in range(len(live)):
                alone, own = scorer.score_candidates(beam_row(live, b),
                                                     eng.ctx)
                np.testing.assert_allclose(batch[b], alone[0], rtol=0,
                                           atol=BATCH_ATOL)
                for got, want in zip(rows or (), own or (), strict=True):
                    np.testing.assert_allclose(got[b * vt:(b + 1) * vt], want,
                                               rtol=0, atol=BATCH_ATOL)

    @pytest.mark.parametrize("family", ["outcome", "partial_backward"])
    def test_one_scorer_serves_many_searches(self, family):
        # a scorer reads its source from ctx and its state from the rows,
        # so two engines built before either searches can share it
        vt, hidden = 9, 8
        m = tiny_model(4, vt=vt, hidden=hidden)
        make = {
            "outcome": lambda: OutcomeScorer(
                OutcomePredictor(6, vt, hidden=hidden, seed=2)),
            "partial_backward": lambda: PartialBackwardScorer(
                PartialBackwardEnsemble(((1, 1), (2, None)), {
                    0: Seq2Seq(vt, 6, hidden=hidden, seed=5),
                    1: Seq2Seq(vt, 6, hidden=hidden, seed=6)})),
        }[family]
        config = DecodeConfig(mode="mmi_q", beam=3, weight=1.0)
        srcs = ([4, 5], [5, 3, 3, 4])
        shared = make()
        engines = [Engine(m, shared, src, config) for src in srcs]
        got = [eng.search(eng.root, config).entries for eng in engines]
        want = [guided_beam_search(m, make(), src, config).entries
                for src in srcs]
        assert got == want
        assert got[0] != got[1]

    def test_partial_backward_eos_is_the_admitted_estimate(self):
        vt, hidden = 9, 8
        m = tiny_model(4, vt=vt, hidden=hidden)
        ensemble = PartialBackwardEnsemble(((1, 1), (2, None)), {
            0: Seq2Seq(vt, 6, hidden=hidden, seed=5),
            1: Seq2Seq(vt, 6, hidden=hidden, seed=6)})
        scorer = PartialBackwardScorer(ensemble)
        src = [4, 5]
        for steps in (1, 2, 3):
            eng, live = live_beam(m, scorer, src, steps)
            eos = scorer.score_candidates(live, eng.ctx)[0][:, EOS]
            for b, tokens in enumerate(live.tokens):
                fresh = batch_logprobs(ensemble.nearest_model(steps), [
                    SequencePair(list(tokens), src + [EOS])])[0]
                assert eos[b] == live.qterm[b]
                assert eos[b] == pytest.approx(fresh, rel=0, abs=BATCH_ATOL)

    @pytest.mark.parametrize("weight", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("buckets", [
        ((1, 1), (2, None)),
        # bucket 1 is empty: lengths 3-4 take bucket 0's model, so its rows
        # carry on, and length 5 is the one edge after the root's bucket
        ((1, 2), (3, 4), (5, None))])
    def test_carried_backward_rows_match_reencoding(self, buckets, attention,
                                                    weight):
        # one carried scorer serves two engines built before either
        # searches; each n-best list equals the one the scorer that
        # re-encodes every prefix gives, tokens exactly and floats up to
        # BATCH_ATOL
        vt, hidden = 9, 8
        m = Seq2Seq(6, vt, hidden=hidden, attention=attention, max_len=7,
                    seed=3)
        ensemble = PartialBackwardEnsemble(buckets, {
            i: Seq2Seq(vt, 6, hidden=hidden, attention=attention, seed=5 + i)
            for i in range(0, len(buckets), 2)})
        config = DecodeConfig(mode="mmi_q", beam=3, weight=weight)
        srcs = ([4, 5], [5, 3, 3, 4])
        shared = PartialBackwardScorer(ensemble)
        engines = [Engine(m, shared, src, config) for src in srcs]
        longest = 0
        for eng, src in zip(engines, srcs):
            got = eng.search(eng.root, config).entries
            want = guided_beam_search(m, ReencodingBackwardScorer(ensemble),
                                      src, config).entries
            assert [h.tokens for h in got] == [h.tokens for h in want]
            for g, w in zip(got, want):
                for field in ("logp", "q_term", "combined"):
                    assert getattr(g, field) == pytest.approx(
                        getattr(w, field), rel=0, abs=BATCH_ATOL)
            longest = max(longest, *(len(h) for h in got))
        assert longest >= buckets[-1][0]  # the last bucket scored something

    @pytest.mark.parametrize("seed, attention", [(0, True), (1, False),
                                                 (2, True)])
    def test_forced_search_matches_a_prefix_replay(self, seed, attention):
        # forcing a prefix token by token gives the root a width-1 replay
        # of BOS + prefix builds, bitwise, and so the same completions
        m = Seq2Seq(6, 9, hidden=5, attention=attention, max_len=6, seed=seed)
        src = [4, 5, 3][:seed + 1]
        config = DecodeConfig(beam=3)
        eng = Engine(m, None, src, config)
        rng = np.random.default_rng(seed)
        for n in (0, 1, 3, 7):
            prefix = tuple(int(t) for t in rng.integers(UNK, 9, size=n))
            live = eng.root
            for tok in prefix:
                live = eng.force(live, tok)
            want = replayed_root(m, src, prefix)
            assert live.tokens == want.tokens
            for got, ref in ((live.cum, want.cum),
                             (live.logprobs, want.logprobs),
                             (live.state.h, want.state.h),
                             (live.state.c, want.state.c),
                             (live.state.feed, want.state.feed)):
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)
            got, ref = (eng.search(root, config).entries
                        for root in (live, want))
            assert [(h.tokens, h.logp, h.combined) for h in got] == \
                [(h.tokens, h.logp, h.combined) for h in ref]
            assert all(h.tokens[:n] == prefix for h in got)

    @pytest.mark.parametrize("tok", [PAD, BOS, EOS, -1, 6])
    def test_force_takes_only_content_tokens(self, tok):
        m = tiny_model(5)
        eng = Engine(m, None, [4, 5], DecodeConfig())
        with pytest.raises(ContractError, match="content token"):
            eng.force(eng.root, tok)
        assert eng.force(eng.root, UNK).tokens == [(UNK,)]

    def test_scorer_shape_is_checked(self):
        m = tiny_model(6)
        flat = CallableScorer(lambda prefix, y: 0.0, m.tgt_vocab)
        flat.score_candidates = lambda beam, ctx: (np.zeros(m.tgt_vocab),
                                                   None)
        with pytest.raises(ContractError, match="shape"):
            guided_beam_search(m, flat, [4, 5],
                               DecodeConfig(mode="mmi_q", weight=1.0))


class TestExhaustive:
    def test_cap_one_is_argmax_over_single_tokens(self):
        m = tiny_model(9)
        got = exhaustive_decode(m, None, [4], DecodeConfig(cap=1))
        ctx, state = m.encode([4])
        logprobs, _ = m.decode_step(state, BOS, ctx)
        # sequences: (y, EOS) for content y, or (EOS,) alone
        best = exhaustive_decode(m, None, [4], DecodeConfig(cap=1))
        assert got.tokens == best.tokens
        assert got.tokens[-1] == EOS and len(got.tokens) <= 2

    def test_guard_refuses_large_spaces(self):
        m = tiny_model(0, vt=20)
        with pytest.raises(SearchSpaceError):
            exhaustive_decode(m, None, [4], DecodeConfig(cap=8))


class TestLengthForced:
    def test_exact_length_when_pool_nonempty(self):
        m = tiny_model(10)
        for want in (1, 2, 3):
            hyp = length_forced_select(m, None, [4, 5], want,
                                       DecodeConfig(beam=4))
            assert len(hyp.content) == want
            assert hyp.tokens[-1] == EOS

    def test_l1_minimal_case(self):
        hyp = length_forced_select(uniform_model(), None, [4], 1,
                                   DecodeConfig(beam=3))
        assert len(hyp.content) == 1

    def test_unmasked_flag_changes_behavior(self):
        m = uniform_model()
        masked = length_forced_select(m, None, [4], 3,
                                      DecodeConfig(beam=3, mask_eos=True))
        unmasked = length_forced_select(m, None, [4], 3,
                                        DecodeConfig(beam=3, mask_eos=False))
        assert len(masked.content) == 3
        # uniform scores tie toward EOS immediately once it is allowed
        assert len(unmasked.content) < 3

    def test_regressor_guidance_weight_zero_matches_plain_protocol(self):
        m = tiny_model(11)
        reg = ConstantRegressor(2.0)
        with_reg = length_forced_select(m, reg, [4, 5], 3,
                                        DecodeConfig(beam=3, weight=0.0))
        without = length_forced_select(m, None, [4, 5], 3,
                                       DecodeConfig(beam=3, weight=0.0))
        assert with_reg.tokens == without.tokens

    @pytest.mark.parametrize("vt", [6, 9])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_fallback_when_nothing_is_admitted(self, vt, length):
        # EOS never reaches a top-B rank, so no hypothesis is admitted at
        # L+1 and decoding runs on to the cap, exactly as beam search does
        for seed in range(20):
            m = tiny_model(seed, vt=vt)
            m.p["out/b"].data[EOS] = -50.0
            cfg = DecodeConfig(beam=3, cap=length + 2)
            got = length_forced_select(m, None, [4, 5], length, cfg)
            want = beam_search(m, [4, 5], cfg).top()
            assert len(got.content) == length + 2
            assert got.tokens == want.tokens
            assert got.logp == want.logp

    def test_requires_positive_length(self):
        with pytest.raises(ConfigError):
            length_forced_select(tiny_model(), None, [4], 0, DecodeConfig())

    def test_bigram_model_follows_its_table(self):
        table = np.random.default_rng(0).normal(size=(9, 9))
        m = bigram_model(table)
        ctx, state = m.encode([4, 5])
        for prev in (BOS, 4, 7, BOS):
            logprobs, state = m.decode_step(state, prev, ctx)
            want = log_softmax(Tensor(table[prev])).data
            assert np.allclose(logprobs, want, atol=1e-5)

    def test_matches_the_protocol_loop_bitwise(self):
        # the protocol folded into _run against its former loop of its
        # own.  Seeds 40-59 include draws (40, 45) where a hypothesis
        # finishing after the fallback's first finishing step would score
        # higher, so stopping at `beam` finishers instead of one shows.
        branches = Counter()
        for seed in range(40, 60):
            table = 4.0 * np.random.default_rng(seed).normal(size=(9, 9))
            m = bigram_model(table)
            reg = LengthRegressor(m.hidden, seed=seed)
            for length, beam, weight, mask_eos in itertools.product(
                    (1, 2, 4), (1, 3), (0.0, 1.0), (True, False)):
                cfg = DecodeConfig(mode="length_q", beam=beam, weight=weight,
                                   mask_eos=mask_eos)
                got = length_forced_select(m, reg, [4, 5], length, cfg)
                want, admitted = reference_protocol(m, reg, [4, 5], length,
                                                    cfg)
                branches[admitted] += 1
                assert (got.tokens, got.logp, got.q_term, got.combined) == (
                    want.tokens, want.logp, want.q_term, want.combined)
        assert branches[True] and branches[False], branches

    def test_scorer_requires_length(self):
        with pytest.raises(ConfigError):
            LengthScorer(ConstantRegressor(1.0), None)


class TestMmiRerank:
    def train_pair(self):
        c = gen_task(TaskSpec("copy", vocab=3, min_len=1, max_len=3,
                              pairs=60, seed=12))
        fwd = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=16,
                      max_len=8, seed=5)
        train_mle(fwd, c, TrainSchedule(epochs=4, batch_size=16, seed=5))
        swapped = gen_task(TaskSpec("copy", vocab=3, min_len=1, max_len=3,
                                    pairs=60, seed=12))
        bwd = Seq2Seq(len(c.tgt_vocab), len(c.src_vocab), hidden=16,
                      max_len=8, seed=6)
        train_mle(bwd, swapped, TrainSchedule(epochs=4, batch_size=16, seed=6))
        return c, fwd, bwd

    def test_weight_zero_returns_beam_top(self):
        c, fwd, bwd = self.train_pair()
        src = c.pairs[0].src
        best, _ = mmi_rerank(fwd, bwd, src, DecodeConfig(beam=4, weight=0.0))
        assert best.tokens == beam_search(fwd, src, DecodeConfig(beam=4)).top().tokens

    def test_large_weight_selects_max_backward(self):
        c, fwd, bwd = self.train_pair()
        src = c.pairs[1].src
        base = beam_search(fwd, src, DecodeConfig(beam=4))
        _, reranked = mmi_rerank(fwd, bwd, src, DecodeConfig(beam=4, weight=1e6))
        backs = {h.tokens: h.q_term for h in reranked.entries}
        assert reranked.top().q_term == max(backs.values())

    def test_matches_independent_rescoring(self):
        c, fwd, bwd = self.train_pair()
        src = c.pairs[2].src
        cfg = DecodeConfig(beam=4, weight=0.8)
        _, reranked = mmi_rerank(fwd, bwd, src, cfg)
        base = beam_search(fwd, src, DecodeConfig(beam=4))
        scored = []
        for h in base.entries:
            if h.content:
                back = sum(step_logprobs(bwd, list(h.content),
                                         list(src) + [EOS]))
            else:
                back = -1e30  # backward model cannot encode an empty source
            scored.append((h.logp + 0.8 * back, h.tokens, back))
        scored.sort(key=lambda s: (-s[0], s[1]))
        assert [s[1] for s in scored] == [h.tokens for h in reranked.entries]
        for (_, _, back), h in zip(scored, reranked.entries):
            assert h.q_term == pytest.approx(back, rel=0, abs=BATCH_ATOL)

    def test_decomposition(self):
        c, fwd, bwd = self.train_pair()
        _, reranked = mmi_rerank(fwd, bwd, c.pairs[3].src,
                                 DecodeConfig(beam=3, weight=0.5))
        for h in reranked.entries:
            assert h.combined == pytest.approx(h.logp + 0.5 * h.q_term, rel=1e-9)


class TestDecodeCorpus:
    def test_counts_and_schema(self):
        c = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=3,
                              pairs=5, seed=13))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, max_len=8, seed=7)
        records, stats = decode_corpus(m, c, DecodeConfig(beam=2))
        assert len(records) == len(c.pairs) == stats["pairs"]
        for r in records:
            assert set(r) == {"id", "src", "hyp", "logp", "q_term", "combined",
                              "len", "ms"}
            assert r["ms"] == 0.0
            assert r["len"] == len(r["hyp"].split()) if r["hyp"] else r["len"] == 0

    def test_empty_corpus(self):
        c = gen_task(TaskSpec("copy", vocab=4, pairs=1, seed=13))
        c.pairs = []
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, seed=7)
        records, stats = decode_corpus(m, c, DecodeConfig(beam=2))
        assert records == [] and stats["pairs"] == 0

    def test_failing_pair_isolated(self):
        c = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=2,
                              pairs=3, seed=14))
        c.pairs[1].src = []  # encode() rejects empty sources
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, max_len=8, seed=7)
        records, stats = decode_corpus(m, c, DecodeConfig(beam=2))
        assert stats["errors"] == 1
        assert "error" in records[1]
        assert "error" not in records[0] and "error" not in records[2]

    def test_non_finite_qterm_is_a_pair_error(self):
        # a NaN qterm would make every comparison in the candidate sort
        # false, so the pair's ranking would be decided by NaN
        c = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=3,
                              pairs=4, seed=17))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, max_len=8,
                    seed=10)
        cfg = DecodeConfig(mode="mmi_q", beam=3, weight=0.5)
        vocab = len(c.tgt_vocab)
        clean = bounded_random_scorer(vocab, "clean").fn
        poisoned = c.pairs[2]

        def factory(pair):
            if pair is not poisoned:
                return CallableScorer(clean, vocab)
            return CallableScorer(lambda prefix, y: float("nan") if y == 5
                                  else clean(prefix, y), vocab)

        want, _ = decode_corpus(m, c, cfg, lambda pair:
                                CallableScorer(clean, vocab))
        records, stats = decode_corpus(m, c, cfg, factory)
        assert stats["errors"] == 1
        assert records[2] == {"id": 2, "error": "ContractError: scorer "
                              "returned a non-finite qterm"}
        assert [records[i] for i in (0, 1, 3)] == [want[i] for i in (0, 1, 3)]

    def test_rerun_identical(self):
        c = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=3,
                              pairs=6, seed=15))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, max_len=8, seed=8)
        a, _ = decode_corpus(m, c, DecodeConfig(beam=3))
        b, _ = decode_corpus(m, c, DecodeConfig(beam=3))
        assert a == b

    def test_guided_mode_requires_factory(self):
        c = gen_task(TaskSpec("copy", vocab=4, pairs=2, seed=16))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, seed=9)
        with pytest.raises(ConfigError):
            decode_corpus(m, c, DecodeConfig(mode="mmi_q"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            DecodeConfig(mode="dfs").validate()

    @pytest.mark.parametrize("weight", [
        float("nan"), float("inf"), -0.5,
        pytest.param(10 ** 400, id="10**400")])
    def test_weight_must_be_finite_and_nonnegative(self, weight):
        # a NaN weight used to pass, and a search then returned an n-best
        # whose every combined score was NaN
        with pytest.raises(ConfigError, match="weight must be finite"):
            DecodeConfig(mode="mmi_q", weight=weight).validate()
        with pytest.raises(ConfigError, match="weight must be finite"):
            guided_beam_search(tiny_model(7), bounded_random_scorer(6, 0),
                               [4, 5], DecodeConfig(mode="mmi_q",
                                                    weight=weight))

    @pytest.mark.parametrize("field,value", [("nbest", -2), ("nbest", 0),
                                             ("cap", -1)])
    def test_out_of_range_count_rejected(self, field, value):
        # nbest=-2 used to cut two entries off the finished pool, and
        # nbest=0 to mean the beam width
        with pytest.raises(ConfigError, match=f"{field} must be >= "
                           f"[01], got {value}"):
            beam_search(tiny_model(7), [4, 5],
                        DecodeConfig(beam=7, **{field: value}))
