"""Pinned cost counters: tape nodes recorded by the training graphs.

Unlike wall time, these counts are exact and the same on every run.  A
change that moves one updates its pin here and says so in CHANGES.md.
"""

import numpy as np
import pytest

from fdq import autodiff as ad
from fdq.autodiff import LSTMParams, Tape, Tensor
from fdq.data import TaskSpec, gen_task, make_batch
from fdq.seq2seq import Seq2Seq, masked_lstm


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
