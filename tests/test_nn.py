"""Gradient and optimizer checks for the tensor core.

Oracles: central finite differences for every composite we train with,
closed-form cross-entropy values, and by-hand optimizer arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq import autodiff as ad
from fdq.autodiff import Tape, Tensor, backward, fd_check
from fdq.errors import ConfigError, ContractError, DimensionError, TrainingDivergenceError
from fdq.optim import OptimState, clip_by_global_norm, optimizer_step

TOL = 1e-4


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBackwardAnalytic:
    def test_sum_all_gradient_is_ones(self):
        x = Tensor(rng().normal(size=(3, 4)))
        with Tape() as tape:
            loss = ad.sum_all(x)
        g = backward(tape, loss).get(x)
        np.testing.assert_allclose(g, np.ones((3, 4)), rtol=0, atol=0)

    def test_dot_product_gradients(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        with Tape() as tape:
            loss = ad.matmul(a, b)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads.get(a), b.data)
        np.testing.assert_allclose(grads.get(b), a.data)

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0])
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        g = backward(tape, loss).get(x)
        np.testing.assert_allclose(g, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = ad.tanh(x)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass


def xent_row(logits, target):
    """masked_xent_sum over one logit row: its cross-entropy."""
    return ad.masked_xent_sum(logits, [target], [1.0])


def closed_form_xent(logits, target):
    """log sum exp(logits) - logits[target], in float64 numpy."""
    logits = np.asarray(logits, dtype=np.float64)
    return np.logaddexp.reduce(logits) - logits[target]


class TestClosedFormXent:
    def test_uniform_two_way(self):
        loss = xent_row(Tensor([[0.0, 0.0]]), 0)
        assert abs(loss.item() - np.log(2.0)) < 1e-6

    def test_confident_correct(self):
        loss = xent_row(Tensor([[10.0, 0.0]]), 0)
        assert abs(loss.item() - np.log1p(np.exp(-10.0))) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            xent_row(Tensor([[0.0, 0.0]]), 2)

    def test_masked_sum_matches_per_row(self):
        r = rng(1)
        logits = r.normal(size=(4, 5))
        targets = np.array([0, 3, 2, 1])
        mask = np.array([1.0, 0.0, 1.0, 1.0])
        total = ad.masked_xent_sum(Tensor(logits), targets, mask).item()
        want = sum(closed_form_xent(logits[i], targets[i])
                   for i in range(4) if mask[i] > 0)
        assert abs(total - want) < 1e-5


class TestFiniteDifferences:
    def test_affine_tanh_chain(self):
        r = rng(2)
        w = Tensor(r.normal(size=(3, 4)))
        b = Tensor(r.normal(size=(3,)))
        x = r.normal(size=(4,))

        def build(ps):
            wp, bp = ps
            return ad.sum_all(ad.tanh(ad.affine(wp, bp, Tensor(x))))

        assert fd_check(build, [w, b]) < TOL

    def test_softmax_xent_path(self):
        r = rng(3)
        w = Tensor(r.normal(size=(5, 4)))
        b = Tensor(r.normal(size=(5,)))
        x = r.normal(size=(4,))

        def build(ps):
            wp, bp = ps
            return xent_row(ad.affine(wp, bp, Tensor(x[None])), 2)

        assert fd_check(build, [w, b]) < TOL

    def test_lstm_step_all_params(self):
        r = rng(4)
        hidden, din = 3, 2
        w_ih = Tensor(r.normal(size=(4 * hidden, din)))
        w_hh = Tensor(r.normal(size=(4 * hidden, hidden)))
        b = Tensor(r.normal(size=(4 * hidden,)))
        x = r.normal(size=(din,))
        h0 = r.normal(size=(hidden,))
        c0 = r.normal(size=(hidden,))

        def build(ps):
            params = ad.LSTMParams(*ps)
            h, c = ad.lstm_step(params, Tensor(x), Tensor(h0), Tensor(c0))
            h, c = ad.lstm_step(params, Tensor(x), h, c)
            return ad.sum_all(ad.mul(h, c))

        assert fd_check(build, [w_ih, w_hh, b]) < TOL

    def test_attention_composite(self):
        r = rng(5)
        enc = Tensor(r.normal(size=(2, 4, 3)))
        h = Tensor(r.normal(size=(2, 3)))

        def build(ps):
            ep, hp = ps
            weights = ad.softmax(ad.attn_scores(ep, hp))
            return ad.sum_all(ad.square(ad.attn_context(weights, ep)))

        assert fd_check(build, [enc, h]) < TOL

    def test_masked_softmax_ignores_padding(self):
        r = rng(6)
        scores = Tensor(r.normal(size=(2, 4)))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]])

        def build(ps):
            return ad.sum_all(ad.square(ad.masked_softmax(ps[0], mask)))

        assert fd_check(build, [scores]) < TOL
        w = ad.masked_softmax(scores, mask)
        assert np.all(w.data[0, 2:] == 0.0)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_embedding_rows_scatter(self):
        table = Tensor(rng(7).normal(size=(6, 3)))
        ids = np.array([1, 4, 1])

        def build(ps):
            return ad.sum_all(ad.square(ad.rows(ps[0], ids)))

        assert fd_check(build, [table]) < TOL

    def test_concat_stack_slice(self):
        r = rng(8)
        a = Tensor(r.normal(size=(3,)))
        b = Tensor(r.normal(size=(2,)))

        def build(ps):
            ap, bp = ps
            cat = ad.concat([ap, bp])
            piece = ad.slice_last(cat, 1, 4)
            piled = ad.stack([piece, piece])
            return ad.sum_all(ad.square(piled))

        assert fd_check(build, [a, b]) < TOL


class TestShapeContracts:
    def test_affine_reports_shapes(self):
        w = Tensor(np.zeros((3, 4)))
        b = Tensor(np.zeros(3))
        with pytest.raises(DimensionError) as err:
            ad.affine(w, b, Tensor(np.zeros(5)))
        assert "(3, 4)" in str(err.value) and "(5,)" in str(err.value)

    def test_lstm_state_mismatch(self):
        params = ad.LSTMParams(
            Tensor(np.zeros((8, 2))), Tensor(np.zeros((8, 2))), Tensor(np.zeros(8)))
        with pytest.raises(DimensionError):
            ad.lstm_step(params, Tensor(np.zeros(2)), Tensor(np.zeros(3)), Tensor(np.zeros(3)))


class TestOptim:
    def test_sgd_single_step(self):
        p = Tensor([1.0])
        opt = OptimState(algorithm="sgd", lr=0.1, clip_norm=0)
        with Tape() as tape:
            loss = ad.sum_all(p)
        optimizer_step(opt, [p], backward(tape, loss))
        np.testing.assert_allclose(p.data, [0.9], atol=1e-7)

    def test_clip_leaves_small_gradients_alone(self):
        g = [np.array([3.0, 4.0])]
        factor = clip_by_global_norm(g, 5.0)
        assert factor == 1.0
        np.testing.assert_allclose(g[0], [3.0, 4.0])

    def test_clip_rescales_to_max_norm(self):
        g = [np.array([6.0]), np.array([8.0])]
        clip_by_global_norm(g, 5.0)
        np.testing.assert_allclose(g[0], [3.0], atol=1e-7)
        np.testing.assert_allclose(g[1], [4.0], atol=1e-7)

    def test_adam_drives_quadratic_to_zero(self):
        p = Tensor([1.0])
        opt = OptimState(algorithm="adam", lr=1e-2)
        for _ in range(500):
            with Tape() as tape:
                loss = ad.sum_all(ad.square(p))
            optimizer_step(opt, [p], backward(tape, loss))
            if abs(float(p.data[0])) < 0.01:
                break
        assert abs(float(p.data[0])) < 0.01

    def test_nan_gradient_raises(self):
        p = Tensor([1.0])
        opt = OptimState()
        with Tape() as tape:
            loss = ad.sum_all(ad.mul_const(p, np.nan))
        with pytest.raises(TrainingDivergenceError):
            optimizer_step(opt, [p], backward(tape, loss))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            OptimState(algorithm="rmsprop")


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_softmax_rows_normalise(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(3, 5), scale=4.0))
        out = ad.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)
        assert np.all(out.data >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_log_softmax_matches_log_of_softmax(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(7,), scale=3.0))
        np.testing.assert_allclose(
            ad.log_softmax(x).data, np.log(ad.softmax(x).data), atol=1e-5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_small_graph_passes_fd(self, seed):
        r = np.random.default_rng(seed)
        w = Tensor(r.normal(size=(2, 3)))
        b = Tensor(r.normal(size=(2,)))
        x = r.normal(size=(3,))

        def build(ps):
            wp, bp = ps
            return ad.sum_all(ad.sigmoid(ad.affine(wp, bp, Tensor(x))))

        assert fd_check(build, [w, b]) < TOL

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_untaped_ops_record_nothing(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(4,)))
        tape = Tape()
        ad.tanh(x)  # outside the with block
        with tape:
            pass
        assert tape.nodes == []
