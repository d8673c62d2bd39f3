"""Encoder-decoder contracts: shapes, normalization, gradients, training."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq import autodiff as ad
from fdq.autodiff import Tape, Tensor, backward, fd_check
from fdq.data import (BOS, EOS, SequencePair, TaskSpec, gen_task, make_batch,
                      split)
from fdq.decode import BATCH_ATOL
from fdq.checkpoint import load_tensors, save_tensors
from fdq.errors import CheckpointError, ContractError
from fdq.seq2seq import (DecoderState, Seq2Seq, TrainSchedule, _param_shapes,
                         batch_logprobs, dataset_ce, train_mle)
from reference import step_logprobs


def tiny_model(seed=0, vs=6, vt=6, hidden=4):
    return Seq2Seq(vs, vt, hidden=hidden, max_len=12, seed=seed)


def zero_model(vs=5, vt=5, hidden=4):
    shapes = _param_shapes(vs, vt, hidden)
    params = {name: Tensor(np.zeros(shape)) for name, shape in shapes}
    return Seq2Seq(vs, vt, hidden=hidden, params=params)


class TestEncode:
    def test_shape_contract(self):
        m = tiny_model()
        ctx, state = m.encode([4, 5, 4, 5, 4])
        assert ctx.enc.shape == (1, 5, m.hidden)
        assert state.h.shape == (1, m.hidden)

    def test_deterministic(self):
        m = tiny_model()
        a, _ = m.encode([4, 5])
        b, _ = m.encode([4, 5])
        np.testing.assert_array_equal(a.enc, b.enc)

    def test_order_sensitive(self):
        m = tiny_model()
        _, s1 = m.encode([4, 5])
        _, s2 = m.encode([5, 4])
        assert not np.allclose(s1.h, s2.h)

    def test_unmasked_encoder_is_the_all_ones_mask(self):
        m = tiny_model()
        ids = np.array([[4, 5, 3, 5], [5, 5, 4, 3]])
        for a, b in zip(m._encode_graph(ids, None), m._encode_graph(
                ids, np.ones(ids.shape, np.float32))):
            np.testing.assert_array_equal(a.data, b.data)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            tiny_model().encode([])

    def test_oov_rejected(self):
        with pytest.raises(ContractError):
            tiny_model(vs=6).encode([6])


class TestDecodeStep:
    def test_log_distribution(self):
        m = tiny_model()
        ctx, state = m.encode([4, 5])
        logprobs, _ = m.decode_step(state, BOS, ctx)
        assert abs(np.logaddexp.reduce(logprobs.astype(np.float64))) < 1e-5

    def test_zero_model_is_uniform(self):
        m = zero_model(vt=5)
        ctx, state = m.encode([4])
        logprobs, _ = m.decode_step(state, BOS, ctx)
        np.testing.assert_allclose(logprobs, -math.log(5), atol=1e-6)

    def test_foreign_state_rejected(self):
        a, b = tiny_model(0), tiny_model(1)
        ctx, state = a.encode([4])
        with pytest.raises(ContractError):
            b.decode_step(state, BOS, ctx)

    @pytest.mark.parametrize("pad", [0, 2])
    def test_untaped_advance_is_the_taped_step(self, pad):
        # decoding runs the training step without a tape, as advance (the
        # cell) then readout (attention and the output layer) on the same
        # rows, attending to its one source with no mask; the taped step
        # gets an explicit mask over `pad` more positions of junk.  Under 8
        # positions numpy sums in order, so a masked position adds an exact
        # zero
        m = tiny_model(3, vt=7)
        ctx, _ = m.encode([4, 5, 3])
        r = np.random.default_rng(pad)
        k, s = 4, ctx.enc.shape[1]
        h, c, feed = r.normal(size=(3, k, m.hidden)).astype(np.float32)
        ids = np.array([3, 2, 6, 3])
        cell = m.advance(DecoderState(h, c, feed, m), ctx, ids)
        untaped = (*cell, *m.readout(cell[0], ctx))
        enc = np.concatenate(
            [np.repeat(ctx.enc, k, axis=0),
             r.normal(size=(k, pad, m.hidden)).astype(np.float32)], axis=1)
        mask = np.concatenate([np.ones((k, s)), np.zeros((k, pad))], axis=1)
        with Tape() as tape:
            state = m._cell(ad.rows(m.p["tgt_embed"], ids), Tensor(feed),
                            Tensor(h), Tensor(c))
            logits, fed = m._readout(Tensor(enc), mask.astype(np.float32),
                                     state[0])
        assert tape.nodes
        for got, want in zip(untaped, (state[0].data, state[1].data,
                                       fed.data, logits.data)):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_states_normalized(self, seed):
        m = tiny_model(seed % 7)
        rng = np.random.default_rng(seed)
        src = list(rng.integers(4, 6, size=rng.integers(1, 5)))
        ctx, state = m.encode(src)
        prev = BOS
        for _ in range(3):
            logprobs, state = m.decode_step(state, prev, ctx)
            assert abs(np.logaddexp.reduce(logprobs.astype(np.float64))) < 1e-5
            prev = int(np.argmax(logprobs))


class TestSequenceLogprob:
    def test_lone_eos_base_case(self):
        m = tiny_model()
        ctx, state = m.encode([4])
        logprobs, _ = m.decode_step(state, BOS, ctx)
        got = batch_logprobs(m, [SequencePair([4], [EOS])])[0]
        assert got == pytest.approx(float(logprobs[EOS]), abs=BATCH_ATOL)

    def test_matches_manual_step_sum(self):
        m = tiny_model()
        tgt = [4, 5, EOS]
        ctx, state = m.encode([4, 5])
        total, prev = 0.0, BOS
        for tok in tgt:
            logprobs, state = m.decode_step(state, prev, ctx)
            total += float(logprobs[tok])
            prev = tok
        got = batch_logprobs(m, [SequencePair([4, 5], tgt)])[0]
        assert got == pytest.approx(total, abs=BATCH_ATOL)

    def test_nonpositive_and_monotone(self):
        m = tiny_model()
        tgt = [5, 4, 5, EOS]
        steps = step_logprobs(m, [4, 5], tgt)
        assert all(lp <= 0 for lp in steps)
        assert batch_logprobs(m, [SequencePair([4, 5], tgt)])[0] <= 0

    def test_requires_eos(self):
        with pytest.raises(ContractError):
            batch_logprobs(tiny_model(), [SequencePair([4], [4, 5])])

    def test_oov_target_rejected(self):
        with pytest.raises(ContractError):
            batch_logprobs(tiny_model(vt=6), [SequencePair([4], [9, EOS])])

    @pytest.mark.parametrize("src", [[-1], [6], [], [4, 6]])
    def test_bad_source_rejected(self, src):
        # -1 once read the last embedding row, 6 indexed past the table
        # and an empty source scored from zero state
        m = Seq2Seq(6, 9, hidden=3)
        with pytest.raises(ContractError):
            batch_logprobs(m, [SequencePair([4], [EOS]),
                               SequencePair(src, [EOS])])

    def test_batch_context_invariance(self):
        m = tiny_model()
        c = gen_task(TaskSpec("copy", vocab=2, min_len=1, max_len=5, pairs=6, seed=3))
        short, longer = c.pairs[0], max(c.pairs, key=lambda p: len(p.src))
        joint, _ = m.mle_loss(make_batch([short, longer]))
        alone_a, _ = m.mle_loss(make_batch([short]))
        alone_b, _ = m.mle_loss(make_batch([longer]))
        assert float(joint.data) == pytest.approx(
            float(alone_a.data) + float(alone_b.data), rel=1e-5, abs=1e-4)
        joint_lp = batch_logprobs(m, [short, longer])
        for pair, alone, got in zip((short, longer), (alone_a, alone_b),
                                    joint_lp):
            want = sum(step_logprobs(m, pair.src, pair.tgt))
            assert got == pytest.approx(want, rel=0, abs=BATCH_ATOL)
            assert want == pytest.approx(-float(alone.data), rel=0,
                                         abs=BATCH_ATOL)


class TestGradients:
    def test_full_loss_fd(self):
        vs, vt, hidden = 5, 5, 3
        shapes = _param_shapes(vs, vt, hidden)
        rng = np.random.default_rng(0)
        params = [Tensor(rng.uniform(-0.3, 0.3, size=s)) for _, s in shapes]
        c = gen_task(TaskSpec("copy", vocab=1, min_len=1, max_len=3, pairs=2, seed=1))
        batch = make_batch(c.pairs)

        def build(ps):
            named = {name: p for (name, _), p in zip(shapes, ps)}
            model = Seq2Seq(vs, vt, hidden=hidden, params=named)
            loss, _ = model.mle_loss(batch)
            return loss

        assert fd_check(build, params) < 1e-3

    def test_attention_sets_get_distinct_gradients(self):
        m = tiny_model()
        c = gen_task(TaskSpec("copy", vocab=2, min_len=2, max_len=4, pairs=4, seed=2))
        with Tape() as tape:
            loss, _ = m.mle_loss(make_batch(c.pairs))
        grads = backward(tape, loss)
        g_soft = grads.get(m.p["att_soft/w"])
        g_feed = grads.get(m.p["att_feed/w"])
        assert g_soft is not None and g_feed is not None
        assert not np.allclose(g_soft, g_feed)


class TestTraining:
    def test_fresh_model_loss_near_log_vocab(self):
        c = gen_task(TaskSpec("copy", vocab=8, min_len=2, max_len=5, pairs=40, seed=4))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=16, seed=0)
        ce = dataset_ce(m, c)
        assert ce == pytest.approx(math.log(len(c.tgt_vocab)), rel=0.05)

    def test_loss_drops_ten_percent_in_five_epochs(self):
        c = gen_task(TaskSpec("copy", vocab=6, min_len=1, max_len=5, pairs=400, seed=5))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=24, seed=1)
        history = train_mle(m, c, TrainSchedule(epochs=5, batch_size=16,
                                                lr=3e-3, seed=1))
        assert history[-1]["train_ce"] < 0.9 * history[0]["train_ce"]

    def test_rerun_reproduces_loss_curve(self):
        c = gen_task(TaskSpec("copy", vocab=5, min_len=1, max_len=4, pairs=40, seed=6))

        def run():
            m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=8, seed=2)
            return train_mle(m, c, TrainSchedule(epochs=3, batch_size=8, seed=2))

        assert run() == run()

    def test_copy_task_converges(self):
        c = gen_task(TaskSpec("copy", vocab=8, min_len=1, max_len=6, pairs=500, seed=7))
        train, dev, _ = split(c, (0.8, 0.1, 0.1), seed=7)
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=48,
                    max_len=17, seed=3)
        train_mle(m, train, TrainSchedule(epochs=40, batch_size=32, lr=5e-3,
                                          seed=3))
        ppl = math.exp(dataset_ce(m, dev))
        assert ppl < 1.5

    def test_argmax_continues_copy(self):
        c = gen_task(TaskSpec("copy", vocab=4, min_len=3, max_len=3, pairs=200, seed=8))
        m = Seq2Seq(len(c.src_vocab), len(c.tgt_vocab), hidden=32, seed=4)
        train_mle(m, c, TrainSchedule(epochs=25, batch_size=32, lr=5e-3, seed=4))
        pair = c.pairs[0]
        ctx, state = m.encode(pair.src)
        prev = BOS
        for tok in pair.tgt[:2]:
            _, state = m.decode_step(state, prev, ctx)
            prev = tok
        logprobs, _ = m.decode_step(state, prev, ctx)
        assert int(np.argmax(logprobs)) == pair.tgt[2]


class TestCheckpointing:
    def test_round_trip_preserves_behavior(self, tmp_path):
        m = tiny_model(seed=9)
        path = tmp_path / "m.fdq"
        m.save(path)
        back = Seq2Seq.load(path)
        assert (back.src_vocab, back.tgt_vocab, back.hidden,
                back.max_len) == (m.src_vocab, m.tgt_vocab, m.hidden,
                                  m.max_len)
        pairs = [SequencePair([4, 5], [5, EOS])]
        assert np.array_equal(batch_logprobs(back, pairs),
                              batch_logprobs(m, pairs))

    def test_resave_bit_identical(self, tmp_path):
        m = tiny_model(seed=10)
        a, b = tmp_path / "a.fdq", tmp_path / "b.fdq"
        m.save(a)
        Seq2Seq.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_meta_without_attention_is_refused(self, tmp_path):
        # meta slot 3 was the attention flag; every model attends, so a
        # file that says 0 there does not describe a model
        path = tmp_path / "m.fdq"
        tiny_model().save(path)
        named = load_tensors(path)
        assert named["meta"][3] == 1.0
        named["meta"][3] = 0.0
        save_tensors(path, named)
        with pytest.raises(CheckpointError, match=f"{path}: not a seq2seq"):
            Seq2Seq.load(path)
