"""Pinned cost counters: tape nodes recorded by the training graphs, and
decoder calls made by the search and by rollout generation.

Unlike wall time, these counts are exact and the same on every run.  A
change that moves one updates its pin here and says so in CHANGES.md.
"""

import numpy as np
import pytest

from fdq import autodiff as ad
from fdq.autodiff import LSTMParams, Tape, Tensor
from fdq.data import TaskSpec, gen_task, make_batch
from fdq.decode import DecodeConfig, beam_search, length_forced_select
from fdq.seq2seq import Seq2Seq, masked_lstm
from fdq.value import LengthRegressor, RolloutConfig, generate_rollouts


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
def test_masked_lstm_records_three_nodes_per_position(positions):
    # per position: the embedding rows, the fused step, the zeroed output
    table = Tensor(np.random.default_rng(1).normal(size=(5, 2)))
    ids = np.zeros((2, positions), dtype=np.int64)
    mask = np.ones((2, positions), dtype=np.float32)
    mask[1, positions // 2:] = 0.0
    with Tape() as tape:
        masked_lstm(table, cell(), ids, mask)
    assert len(tape.nodes) == 3 * positions


@pytest.mark.parametrize("attention, nodes", [(True, 82), (False, 37)])
def test_mle_loss_node_count(attention, nodes):
    # three copy pairs: S=4 source positions, T=5 target slots.  Encoder
    # 3S + 1 (stack).  Per slot: rows, fused step, the attention block
    # (concat in, scores, masked softmax, context, concat, two tanh
    # affines) when on, the output affine, the cross-entropy; T-1 adds.
    # 13 + 5*13 + 4 = 82 with attention, 13 + 5*4 + 4 = 37 without.
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
    """Seq2Seq.advance calls and rows, and decode_step calls, of search().
    decode_step advances one row itself, so it adds one call and one row."""
    counts = {"advance": 0, "rows": 0, "decode_step": 0}
    advance, decode_step = Seq2Seq.advance, Seq2Seq.decode_step

    def counted_advance(self, state, ctx, token_ids):
        counts["advance"] += 1
        counts["rows"] += len(token_ids)
        return advance(self, state, ctx, token_ids)

    def counted_step(self, state, prev_token, ctx):
        counts["decode_step"] += 1
        return decode_step(self, state, prev_token, ctx)

    monkeypatch.setattr(Seq2Seq, "advance", counted_advance)
    monkeypatch.setattr(Seq2Seq, "decode_step", counted_step)
    search()
    return counts


@pytest.mark.parametrize("search, want", [
    # beam 3: three steps of kept rows after the root
    ("beam", {"advance": 4, "rows": 7, "decode_step": 1}),
    # beam 2, L=2: EOS is admitted at position 3; each step adds the
    # scorer's speculative [B*V] advance to the kept rows' advance
    ("admitted", {"advance": 6, "rows": 50, "decode_step": 1}),
    # beam 1, L=2: nothing is admitted, so the search runs to the cap of 8
    ("fallback", {"advance": 18, "rows": 90, "decode_step": 1}),
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


def test_rollout_decoder_calls(monkeypatch):
    # 5 pairs, 4 positions x 2 samples each: the prefix is replayed once
    # per pair up to its last position (decode_step), and every sample
    # that is not EOS is beam-completed (advance).  Replaying the prefix
    # from scratch for every sample made 230 decode_step and 386 advance
    # calls.
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
    assert counts == {"advance": 294, "rows": 450, "decode_step": 138}
