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
from fdq.errors import ContractError, DimensionError, TrainingDivergenceError
from fdq.optim import OptimState, optimizer_step

import reference
from reference import PerTensorOptim, mul_const, sigmoid, slice_last

TOL = 1e-4
# fused-cell float32 gradients against the unfused reference: equal bit for
# bit on numpy 2.4 / OpenBLAS, but a 1-D step's weight gradients come from a
# one-row matmul where the reference used np.outer, which a BLAS may round
# differently
FUSED_GRAD_TOL = 1e-6


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
            loss = reference.matmul(a, b)
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

    def test_log_softmax_refuses_a_tape(self):
        # it records no node, so a taped graph through it would get no
        # gradient; training takes its loss from masked_xent_sum
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            with pytest.raises(ContractError, match="masked_xent_sum"):
                ad.log_softmax(x)
        assert tape.nodes == []


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
            return ad.sum_all(ad.square(ad.softmax(ps[0], mask)))

        assert fd_check(build, [scores]) < TOL
        w = ad.softmax(scores, mask)
        assert np.all(w.data[0, 2:] == 0.0)
        np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_softmax_without_mask_is_all_ones(self, dtype):
        # None pads nothing: the plain softmax, bit for bit; the scores span
        # a wide range and tie
        r = rng(11)
        a = (r.normal(size=(5, 7)) * 10.0 ** r.integers(-3, 4, size=(5, 1)))
        a[0, 3:] = a[0, 0]
        with ad.precision(dtype):
            scores = Tensor(a)
            plain = ad.softmax(scores, None)
            ones = ad.softmax(scores, np.ones(a.shape, dtype))
        assert plain.data.dtype == ones.data.dtype == dtype
        np.testing.assert_array_equal(plain.data, ones.data)

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
            piece = slice_last(cat, 1, 4)
            piled = ad.stack([piece, piece])
            return ad.sum_all(ad.square(piled))

        assert fd_check(build, [a, b]) < TOL


def lstm_rig(batched, masked, seed=9):
    """Weights, input, state and mask for two chained steps of a small cell."""
    r = rng(seed)
    hidden, din = 3, 2
    lead = (3,) if batched else ()
    tensors = [Tensor(r.normal(size=s)) for s in (
        (4 * hidden, din), (4 * hidden, hidden), (4 * hidden,),
        lead + (din,), lead + (hidden,), lead + (hidden,))]
    masks = (None, None)
    if masked:  # per-step masks: a row steps, then holds (or the reverse)
        first, second = (([[1.0], [0.0], [1.0]], [[0.0], [1.0], [1.0]])
                         if batched else ([1.0], [0.0]))
        masks = (np.array(first), np.array(second))
    return tensors, masks


def two_steps(step, ps, masks):
    """Two chained steps; the loss reads the second h and the first c, so
    the second c gets no gradient and the first c gets two."""
    params = ad.LSTMParams(*ps[:3])
    x, h, c = ps[3:]
    h1, c1 = step(params, x, h, c, masks[0])
    h2, _ = step(params, x, h1, c1, masks[1])
    return ad.add(ad.sum_all(ad.square(h2)), ad.sum_all(ad.mul(c1, c1)))


LSTM_SHAPES = pytest.mark.parametrize("batched, masked", [
    (False, False), (False, True), (True, False), (True, True)])


class TestFusedLstm:
    @LSTM_SHAPES
    def test_fd_check(self, batched, masked):
        # eps=1e-4: at the default 1e-3 central differences carry ~6e-4
        # truncation error on this rig, the same for the unfused reference
        tensors, masks = lstm_rig(batched, masked)
        build = lambda ps: two_steps(ad.lstm_step, ps, masks)  # noqa: E731
        assert fd_check(build, tensors, eps=1e-4) < TOL

    @LSTM_SHAPES
    def test_matches_unfused_reference(self, batched, masked):
        tensors, masks = lstm_rig(batched, masked)
        if masked:
            masks = tuple(m.astype(np.float32) for m in masks)
        params = ad.LSTMParams(*tensors[:3])
        fused = ad.lstm_step(params, *tensors[3:], masks[0])
        unfused = reference.lstm_step(params, *tensors[3:], masks[0])
        for a, b in zip(fused, unfused):
            assert a.data.dtype == np.float32
            np.testing.assert_array_equal(a.data, b.data)
        grads = []
        for step in (ad.lstm_step, reference.lstm_step):
            with Tape() as tape:
                loss = two_steps(step, tensors, masks)
            got = backward(tape, loss)
            grads.append([got.get(t) for t in tensors])
        for a, b in zip(*grads):
            np.testing.assert_allclose(a, b, rtol=FUSED_GRAD_TOL,
                                       atol=FUSED_GRAD_TOL)


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
    @staticmethod
    def clipped(grads, clip):
        """The gradients one Adam step reads its moments from, after the
        clip, for parameters with these gradients, one tensor each."""
        ps = [Tensor(np.zeros(len(g))) for g in grads]
        with Tape() as tape:
            loss = ad.sum_all(ad.concat(
                [mul_const(p, g) for p, g in zip(ps, grads)]))
        opt = OptimState(lr=1.0, clip_norm=clip)
        optimizer_step(opt, ps, backward(tape, loss))
        return np.split(opt._grad, np.cumsum([len(g) for g in grads])[:-1])

    def test_clip_leaves_small_gradients_alone(self):
        moved = self.clipped([[3.0, 4.0]], 5.0)
        np.testing.assert_array_equal(moved[0], [3.0, 4.0])

    def test_clip_rescales_to_max_norm(self):
        moved = self.clipped([[6.0], [8.0]], 5.0)
        np.testing.assert_allclose(moved[0], [3.0], atol=1e-7)
        np.testing.assert_allclose(moved[1], [4.0], atol=1e-7)

    def test_adam_drives_quadratic_to_zero(self):
        p = Tensor([1.0])
        opt = OptimState(lr=1e-2)
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
            loss = ad.sum_all(mul_const(p, np.nan))
        with pytest.raises(TrainingDivergenceError):
            optimizer_step(opt, [p], backward(tape, loss))

    @pytest.mark.parametrize("clip", [0.05, 1e3, 0.0])
    def test_flat_update_matches_per_tensor_reference(self, clip):
        # an LSTM cell and an affine head as the loss, so the tape leaves a
        # transposed w_hh gradient, and one parameter the loss never reads
        r = rng(10)
        shapes = [(8, 3), (8, 2), (8,), (4,), (1, 2), (1,)]
        init = [r.normal(size=s).astype(np.float32) for s in shapes]
        x, h, c = (Tensor(r.normal(size=(5, n))) for n in (3, 2, 2))
        y = Tensor(r.normal(size=(5, 1)))

        def loss(ps):
            h1, _ = ad.lstm_step(ad.LSTMParams(*ps[:3]), x, h, c)
            pred = ad.affine(ps[4], ps[5], h1)
            return ad.sum_all(ad.square(ad.sub(pred, y)))

        flat = [Tensor(a.copy()) for a in init]
        per = [Tensor(a.copy()) for a in init]
        opt = OptimState(lr=1e-2, clip_norm=clip)
        ref = PerTensorOptim(lr=1e-2, clip_norm=clip)
        steps = ((flat, lambda g: optimizer_step(opt, flat, g, 5.0)),
                 (per, lambda g: ref.step(per, g, 5.0)))
        for _ in range(50):
            for ps, update in steps:
                with Tape() as tape:
                    out = loss(ps)
                update(backward(tape, out))
            for a, b in zip(flat, per):
                np.testing.assert_array_equal(a.data, b.data)
        active = [f < 1.0 for f in ref.factors]
        assert all(active) if 0 < clip < 1.0 else not any(active)
        assert opt.step == 50

    def test_second_parameter_list_rejected(self):
        p, q = Tensor([1.0]), Tensor([2.0])
        opt = OptimState()
        with Tape() as tape:
            loss = ad.sum_all(ad.add(ad.square(p), ad.square(q)))
        grads = backward(tape, loss)
        optimizer_step(opt, [p], grads)
        for other in ([p, q], [q]):
            with pytest.raises(ContractError):
                optimizer_step(opt, other, grads)
        assert opt.step == 1


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
            return ad.sum_all(sigmoid(ad.affine(wp, bp, Tensor(x))))

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
