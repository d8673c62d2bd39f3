"""Why the engine can be trusted: finite-difference gradient checks on
the core graphs, then beam search against brute-force enumeration."""

import numpy as np

from fdq import autodiff as ad
from fdq.autodiff import Tensor, fd_check
from fdq.decode import (CallableScorer, DecodeConfig, beam_search,
                        exhaustive_decode, guided_beam_search)
from fdq.seq2seq import Seq2Seq

print("== gradient checks (max relative error vs central differences) ==")
r = np.random.default_rng(0)

w = Tensor(r.normal(size=(3, 4)))
b = Tensor(r.normal(size=(3,)))
x = r.normal(size=(4,))
err = fd_check(lambda ps: ad.sum_all(ad.tanh(ad.affine(ps[0], ps[1],
                                                       Tensor(x)))), [w, b])
print(f"affine + tanh        {err:.2e}")

hidden, din = 3, 2
w_ih = Tensor(r.normal(size=(4 * hidden, din)))
w_hh = Tensor(r.normal(size=(4 * hidden, hidden)))
lb = Tensor(r.normal(size=(4 * hidden,)))
xs = r.normal(size=(din,))
h0 = r.normal(size=(hidden,))
c0 = r.normal(size=(hidden,))


def lstm_build(ps):
    params = ad.LSTMParams(*ps)
    h, c = ad.lstm_step(params, Tensor(xs), Tensor(h0), Tensor(c0))
    h, c = ad.lstm_step(params, Tensor(xs), h, c)
    return ad.sum_all(ad.mul(h, c))


print(f"two chained lstm steps {fd_check(lstm_build, [w_ih, w_hh, lb]):.2e}")

enc = Tensor(r.normal(size=(2, 4, 3)))
hq = Tensor(r.normal(size=(2, 3)))


def attn_build(ps):
    weights = ad.softmax(ad.attn_scores(ps[0], ps[1]))
    return ad.sum_all(ad.square(ad.attn_context(weights, ps[0])))


print(f"attention read       {fd_check(attn_build, [enc, hq]):.2e}")

print()
print("== beam search vs exhaustive enumeration ==")
print("4 content tokens, sequences capped at 4, beam 400 covers the")
print("whole space, so the beam top-1 must equal the true argmax")
matches = 0
for seed in range(10):
    m = Seq2Seq(7, 7, hidden=3, max_len=8, seed=seed)
    top = beam_search(m, [3, 4], DecodeConfig(beam=400, cap=4))[0]
    oracle = exhaustive_decode(m, None, [3, 4], DecodeConfig(cap=4))
    matches += top.tokens == oracle.tokens
    if seed < 3:
        print(f"model {seed}: beam {top.tokens}  brute force {oracle.tokens}")
print(f"agreement: {matches}/10 random models")

print()
print("== a value term can steer the whole search ==")
m = Seq2Seq(7, 7, hidden=3, max_len=8, seed=1)
plain = beam_search(m, [3, 4], DecodeConfig(beam=4, cap=4))[0]
lure = 6


def fn(prefix, y):
    return 5.0 if (prefix + (y,))[0] == lure else 0.0


cfg = DecodeConfig(mode="mmi_q", beam=4, weight=1.0, cap=4)
steered = guided_beam_search(m, CallableScorer(fn, 7), [3, 4], cfg)[0]
print(f"plain top-1   {plain.tokens}")
print(f"steered top-1 {steered.tokens} (value term pays 5.0 for starting "
      f"with token {lure})")
print(f"decomposition: logp {steered.logp:.3f} + 1.0 * q {steered.q_term:.3f}"
      f" = {steered.combined:.3f}")
