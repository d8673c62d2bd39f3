"""Pinned cost counters: tape nodes recorded by the training graphs,
encoder and decoder calls made by the search and by rollout generation,
and the scorers' own calls.

Unlike wall time, these counts are exact and the same on every run.  A
change that moves one updates its pin here and says so in CHANGES.md.
"""

import numpy as np
import pytest

from fdq import autodiff as ad
from fdq import seq2seq, value
from fdq.autodiff import LSTMParams, Tape, Tensor
from fdq.data import TaskSpec, gen_task, make_batch
from fdq.decode import (DecodeConfig, beam_search, guided_beam_search,
                        length_forced_select)
from fdq.seq2seq import Seq2Seq, TrainSchedule, masked_lstm
from fdq.value import (LengthRegressor, OutcomePredictor, OutcomeScorer,
                       PartialBackwardEnsemble, PartialBackwardScorer,
                       RolloutConfig, generate_rollouts)


def cell(hidden=3, din=2, seed=0):
    r = np.random.default_rng(seed)
    return LSTMParams(Tensor(r.normal(size=(4 * hidden, din))),
                      Tensor(r.normal(size=(4 * hidden, hidden))),
                      Tensor(r.normal(size=(4 * hidden,))))


@pytest.mark.parametrize("lead, mask", [
    ((), None), ((2,), None), ((2,), np.array([[1.0], [0.0]]))])
def test_lstm_step_records_one_node(lead, mask):
    params = cell()
    x, h, c = (Tensor(np.zeros(lead + (n,))) for n in (2, 3, 3))
    with Tape() as tape:
        ad.lstm_step(params, x, h, c, mask)
    assert len(tape.nodes) == 1


@pytest.mark.parametrize("positions", [1, 4, 7])
def test_masked_lstm_records_two_nodes_per_position(positions):
    # per position: the embedding rows and the fused step; a padded
    # position's held state is read by attention with weight zero
    table = Tensor(np.random.default_rng(1).normal(size=(5, 2)))
    ids = np.zeros((2, positions), dtype=np.int64)
    mask = np.ones((2, positions), dtype=np.float32)
    mask[1, positions // 2:] = 0.0
    with Tape() as tape:
        masked_lstm(table, cell(), ids, mask)
    assert len(tape.nodes) == 2 * positions


@pytest.mark.parametrize("attention, nodes", [(True, 78), (False, 33)])
def test_mle_loss_node_count(attention, nodes):
    # three copy pairs: S=4 source positions, T=5 target slots.  Encoder
    # 2S + 1 (stack).  Per slot: rows, fused step, the attention block
    # (concat in, scores, masked softmax, context, concat, two tanh
    # affines) when on, the output affine, the cross-entropy; T-1 adds.
    # 9 + 5*13 + 4 = 78 with attention, 9 + 5*4 + 4 = 33 without.
    # The unfused cell recorded 250 and 205.
    corpus = gen_task(TaskSpec("copy", vocab=3, min_len=2, max_len=4,
                               pairs=3, seed=1))
    batch = make_batch(corpus.pairs)
    assert batch.src.shape == (3, 4) and batch.tgt_in.shape == (3, 5)
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=4,
                    attention=attention, seed=0)
    with Tape() as tape:
        model.mle_loss(batch)
    assert len(tape.nodes) == nodes


def _search_counts(monkeypatch, search):
    """Seq2Seq.encode calls, advance calls and rows, and decode_step calls,
    of search().  decode_step advances one row itself, so it adds one call
    and one row."""
    counts = {"encode": 0, "advance": 0, "rows": 0, "decode_step": 0}
    encode, advance = Seq2Seq.encode, Seq2Seq.advance
    decode_step = Seq2Seq.decode_step

    def counted_encode(self, src):
        counts["encode"] += 1
        return encode(self, src)

    def counted_advance(self, state, ctx, token_ids):
        counts["advance"] += 1
        counts["rows"] += len(token_ids)
        return advance(self, state, ctx, token_ids)

    def counted_step(self, state, prev_token, ctx):
        counts["decode_step"] += 1
        return decode_step(self, state, prev_token, ctx)

    monkeypatch.setattr(Seq2Seq, "encode", counted_encode)
    monkeypatch.setattr(Seq2Seq, "advance", counted_advance)
    monkeypatch.setattr(Seq2Seq, "decode_step", counted_step)
    search()
    return counts


@pytest.mark.parametrize("search, want", [
    # beam 3: three steps of kept rows after the root
    ("beam", {"encode": 1, "advance": 4, "rows": 7, "decode_step": 1}),
    # beam 2, L=2: EOS is admitted at position 3; each step makes one
    # speculative [B*V] advance for the scorer, and the kept rows are
    # gathered from it (1 + 9 + 18 + 18 rows)
    ("admitted", {"encode": 1, "advance": 4, "rows": 46,
                  "decode_step": 1}),
    # beam 1, L=2: nothing is admitted, so the search runs to the cap of 8
    ("fallback", {"encode": 1, "advance": 10, "rows": 82,
                  "decode_step": 1}),
])
def test_search_decoder_calls(monkeypatch, search, want):
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    reg = LengthRegressor(3, seed=0)
    runs = {
        "beam": lambda: beam_search(model, [4, 5], DecodeConfig(beam=3)),
        "admitted": lambda: length_forced_select(
            model, reg, [4, 5], 2, DecodeConfig(mode="length_q", beam=2)),
        "fallback": lambda: length_forced_select(
            model, reg, [4, 5], 2, DecodeConfig(mode="length_q", beam=1)),
    }
    assert _search_counts(monkeypatch, runs[search]) == want


def test_guided_search_reads_out_only_kept_rows(monkeypatch):
    # beam 2, L=2 as in "admitted": the length scorer reads the decoder
    # cell of every candidate, so advance makes 1 + 9 + 18 + 18 rows, but
    # attention reads only the root's row and the 2 kept rows of each of
    # the two settled steps (EOS is admitted at the third)
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    advanced = _counted(monkeypatch, Seq2Seq, "advance",
                        rows=lambda self, state, ctx, ids: len(ids))
    attended = _counted(monkeypatch, ad, "attn_scores",
                        rows=lambda enc, h: len(h.data))
    length_forced_select(model, LengthRegressor(3, seed=0), [4, 5], 2,
                         DecodeConfig(mode="length_q", beam=2))
    assert {"advance_rows": advanced["rows"],
            "attended_rows": attended["rows"]} == {
        "advance_rows": 1 + 9 + 18 + 18, "attended_rows": 1 + 2 + 2}


def test_rollout_decoder_calls(monkeypatch):
    # 5 pairs, 4 positions x 2 samples each: one engine per pair encodes
    # the source and steps BOS (decode_step), forces its root along the
    # prefix up to the last position, and searches on from the root
    # forced by every sample that is not EOS (advance).
    corpus = gen_task(TaskSpec("copy", vocab=4, min_len=3, max_len=6,
                               pairs=5, seed=2))
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=3,
                    max_len=8, seed=4)
    model.trained = True
    config = RolloutConfig(positions=4, samples=2, beam=2, seed=0)
    records = []
    counts = _search_counts(monkeypatch, lambda: records.extend(
        generate_rollouts(model, corpus, config)))
    assert len(records) == 40
    assert counts == {"encode": 5, "advance": 210, "rows": 366,
                      "decode_step": 5}


def _counted(monkeypatch, owner, name, **fields):
    """The calls of owner.name while the test runs, and for each field f
    the sum of fields[f](*args) over those calls."""
    counts = dict.fromkeys(("calls", *fields), 0)
    original = getattr(owner, name)

    def counted(*args):
        counts["calls"] += 1
        for field, count in fields.items():
            counts[field] += count(*args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("weight, want", [
    # one prefix step per search step over every candidate (9 + 18 + 18
    # rows); the kept rows are gathered from it.  The root's step encodes
    # the source once
    (1.0, {"calls": 3, "rows": 45, "sources": 1}),
    # the scorer is never consulted at weight 0, so it makes no rows and
    # encodes nothing
    (0.0, {"calls": 0, "rows": 0, "sources": 0}),
])
def test_outcome_scorer_prefix_steps(monkeypatch, weight, want):
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    scorer = OutcomeScorer(OutcomePredictor(6, 9, hidden=3, seed=2))
    counts = _counted(monkeypatch, OutcomePredictor, "step_prefix",
                      rows=lambda self, state, tokens: len(tokens))
    sources = _counted(monkeypatch, OutcomePredictor, "_encode",
                       x=lambda self, side, ids, mask: side == "x")
    guided_beam_search(model, scorer, [4, 5],
                       DecodeConfig(mode="outcome_q", beam=3, weight=weight))
    assert {**counts, "sources": sources["x"]} == want


def test_untaped_search_does_no_vjp_bookkeeping(monkeypatch):
    # a search records nothing and computes nothing only a backward reads:
    # concat's split offsets wait for the vjp, the one source pads nothing
    # so attention takes no mask, and a state that already has the rows is
    # used as it is.  Left: the root decode_step's [H] h, c, feed and the
    # [1,S,H] source stretched to the rows of the 3 advances past the root
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    cumsum = _counted(monkeypatch, np, "cumsum")
    records = _counted(monkeypatch, ad, "_record",
                       taped=lambda *args: ad._ACTIVE_TAPE is not None)
    masks = _counted(monkeypatch, ad, "masked_softmax",
                     masked=lambda a, mask: mask is not None)
    stretched = _counted(monkeypatch, np, "broadcast_to")
    beam_search(model, [4, 5], DecodeConfig(beam=3))
    assert {"cumsum": cumsum["calls"], "taped_records": records["taped"],
            "masked_softmax": masks["masked"],
            "broadcast_to": stretched["calls"]} == {
        "cumsum": 0, "taped_records": 0, "masked_softmax": 0,
        "broadcast_to": 3 + 3}


def test_outcome_fit_step_tape_nodes(monkeypatch):
    # one train_outcome_q step on three records: the source encoder 2S
    # (S=3), the prefix encoder 2S (S=4), the head (concat, two affines,
    # tanh) 4 and the loss (sub, square, sum) 3
    records = [{"src": src, "prefix": prefix, "q": q}
               for src, prefix, q in (([4, 5], [4], 0.5),
                                      ([5, 4, 4], [5, 6, 7, 4], 0.25),
                                      ([4], [6, 6], 1.0))]
    steps = []
    monkeypatch.setattr(value, "fit", lambda params, schedule, epoch,
                        loss_fn, metric: steps.append(loss_fn))
    value.train_outcome_q(records, TrainSchedule(seed=2), 6, 9, hidden=3)
    with Tape() as tape:
        steps[0](np.arange(3))
    assert len(tape.nodes) == 6 + 8 + 4 + 3


@pytest.mark.parametrize("search, want", [
    ("sbs", 89), ("length_q", 94), ("mmi_q", 153), ("outcome_q", 130),
    ("outcome_q_weight_0", 89)])
def test_tensor_constructions_per_pair(monkeypatch, search, want):
    # every Tensor one decoded pair builds, untaped ones included; the
    # models and heads are built before counting.  At weight 0 the
    # outcome search builds what sbs builds.  The mmi_q search crosses a
    # bucket edge at its second step, where the prefixes are encoded afresh.
    # The length_q search reads out only kept rows, and none at the step
    # where EOS is admitted
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    reg = LengthRegressor(3, seed=0)
    ensemble = PartialBackwardEnsemble(
        ((1, 1), (2, None)), {0: Seq2Seq(9, 6, hidden=3, seed=5),
                              1: Seq2Seq(9, 6, hidden=3, seed=6)})
    predictor = OutcomePredictor(6, 9, hidden=3, seed=2)

    def guided(scorer, mode, weight=1.0):
        return lambda: guided_beam_search(
            model, scorer, [4, 5],
            DecodeConfig(mode=mode, beam=3, weight=weight))

    runs = {
        "sbs": lambda: beam_search(model, [4, 5], DecodeConfig(beam=3)),
        "length_q": lambda: length_forced_select(
            model, reg, [4, 5], 2, DecodeConfig(mode="length_q", beam=3)),
        "mmi_q": guided(PartialBackwardScorer(ensemble), "mmi_q"),
        "outcome_q": guided(OutcomeScorer(predictor), "outcome_q"),
        "outcome_q_weight_0": guided(OutcomeScorer(predictor), "outcome_q",
                                     0.0),
    }
    counts = _counted(monkeypatch, Tensor, "__init__")
    runs[search]()
    assert counts["calls"] == want


def test_partial_backward_scorer_sequences(monkeypatch):
    # the scorer carries its bucket encoder in the beam's rows, so a search
    # scores no SequencePair through batch_logprobs.  One encoder step per
    # search step over every candidate: the root's 9, then 3 rows x 9.
    # Length 2 opens bucket 1, so that step first encodes the 3 one-token
    # prefixes afresh under its model: one encoder pass of 3 rows
    model = Seq2Seq(6, 9, hidden=3, max_len=8, seed=4)
    buckets = {0: Seq2Seq(9, 6, hidden=3, seed=5),
               1: Seq2Seq(9, 6, hidden=3, seed=6)}
    scorer = PartialBackwardScorer(PartialBackwardEnsemble(
        ((1, 1), (2, None)), buckets))
    enc_weights = [m.p["enc/w_ih"] for m in buckets.values()]
    scored = [_counted(monkeypatch, owner, "batch_logprobs")
              for owner in (value, seq2seq)]
    encodes = _counted(monkeypatch, Seq2Seq, "_encode_graph",
                       bucket=lambda self, ids, mask: self is not model)
    steps = _counted(
        monkeypatch, ad, "lstm_step",
        rows=lambda params, x, *state: len(x.data) if any(
            params.w_ih is w for w in enc_weights) else 0)
    guided_beam_search(model, scorer, [4, 5],
                       DecodeConfig(mode="mmi_q", beam=3, weight=1.0))
    assert {"batch_logprobs": sum(s["calls"] for s in scored),
            "bucket_encodes": encodes["bucket"],
            "encoder_rows": steps["rows"]} == {
        "batch_logprobs": 0, "bucket_encodes": 1, "encoder_rows": 3 + 9 + 27}
