"""Acceptance gate: nine pinned checks, each with an explicit tolerance
and a wall-clock budget.  Every test prints one summary line; rigs are
deliberately small so the whole gate stays a desk-scale run."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from fdq import autodiff as ad
from fdq.autodiff import Tensor, fd_check
from fdq.cli import main
from fdq.data import GENERIC_REPLY, TaskSpec, gen_task, make_batch, split
from fdq.decode import (CallableScorer, DecodeConfig, beam_search,
                        decode_corpus, exhaustive_decode, guided_beam_search,
                        length_forced_select)
from fdq.metrics import (bleu, distinct_n, exact_length_rate, ngram_counts,
                         rouge2, sentence_bleu)
from fdq.seeding import stream_key
from fdq.seq2seq import Seq2Seq, TrainSchedule, _param_shapes, dataset_ce, train_mle
from fdq.value import (LengthRegressor, OutcomePredictor, OutcomeScorer,
                       PartialBackwardScorer, RolloutConfig, dev_report,
                       generate_rollouts, length_examples,
                       train_backward_model, train_backward_q_option2,
                       train_length_q, train_outcome_q)


def subcorpus(corpus, pairs):
    return dataclasses.replace(corpus, pairs=list(pairs))


def finish(n, label, detail, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {n} took {dt:.1f}s, budget {budget}s"
    print(f"criterion {n} ({label}): PASS ({detail}; {dt:.1f}s < {budget}s)")


def hyp_lines(records):
    assert all("error" not in r for r in records)
    return [r["hyp"] for r in records]


def test_criterion_1_gradient_suite():
    # analytic gradients vs central differences: plain ops at 1e-4,
    # whole-model composites at 1e-3
    t0 = time.perf_counter()
    r = np.random.default_rng(0)
    worst_simple = 0.0

    w = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(3,)))
    x = r.normal(size=(4,))
    err = fd_check(lambda ps: ad.sum_all(ad.affine(ps[0], ps[1], Tensor(x))),
                   [w, b])
    worst_simple = max(worst_simple, err)

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

    worst_simple = max(worst_simple, fd_check(lstm_build, [w_ih, w_hh, lb]))

    enc = Tensor(r.normal(size=(2, 4, 3)))
    hq = Tensor(r.normal(size=(2, 3)))

    def attn_build(ps):
        weights = ad.softmax(ad.attn_scores(ps[0], ps[1]))
        return ad.sum_all(ad.square(ad.attn_context(weights, ps[0])))

    worst_simple = max(worst_simple, fd_check(attn_build, [enc, hq]))

    feats = r.normal(size=(5, 6))
    labels = r.normal(size=(5, 1))
    for head_seed in (1, 2):
        reg = LengthRegressor(6, seed=head_seed)
        names = list(reg.p)

        def head_build(ps, reg=reg, names=names):
            reg.p = dict(zip(names, ps))
            pred = reg._graph(Tensor(feats))
            return ad.sum_all(ad.square(ad.sub(pred, Tensor(labels))))

        worst_simple = max(worst_simple, fd_check(head_build, reg.params()))
    assert worst_simple < 1e-4, f"simple-op gradient error {worst_simple:.2e}"

    worst_composite = 0.0
    shapes = _param_shapes(5, 5, 3)
    params = [Tensor(r.uniform(-0.3, 0.3, size=s)) for _, s in shapes]
    c = gen_task(TaskSpec("copy", vocab=1, min_len=1, max_len=3, pairs=2, seed=1))
    batch = make_batch(c.pairs)

    def seq2seq_build(ps):
        named = {name: p for (name, _), p in zip(shapes, ps)}
        model = Seq2Seq(5, 5, hidden=3, params=named)
        loss, _ = model.mle_loss(batch)
        return loss

    worst_composite = max(worst_composite, fd_check(seq2seq_build, params))

    pred = OutcomePredictor(7, 7, hidden=4, seed=3)
    names = list(pred.p)
    targets = r.normal(size=(2, 1))

    def outcome_build(ps):
        pred.p = dict(zip(names, ps))
        out = pred._graph([[3, 4], [5, 6, 4]], [[1, 3], [1, 5]])
        return ad.sum_all(ad.square(ad.sub(out, Tensor(targets))))

    worst_composite = max(worst_composite, fd_check(outcome_build, pred.params()))
    assert worst_composite < 1e-3, f"composite gradient error {worst_composite:.2e}"
    finish(1, "gradients", f"simple {worst_simple:.1e} < 1e-4, "
           f"composite {worst_composite:.1e} < 1e-3", t0, 60)


def test_criterion_2_oracle_equivalence():
    # beam wide enough to cover the whole space must equal brute force,
    # with and without a guidance term
    t0 = time.perf_counter()
    checked = 0
    for i in range(50):
        m = Seq2Seq(7, 7, hidden=3, max_len=8, seed=i)
        src = [3 + (i % 4), 3 + ((i // 4) % 4)]
        top = beam_search(m, src, DecodeConfig(beam=400, cap=4))[0]
        oracle = exhaustive_decode(m, None, src, DecodeConfig(cap=4))
        assert top.tokens == oracle.tokens, f"model {i}: sbs diverged"
        assert top.combined == pytest.approx(oracle.combined, abs=1e-9)

        def fn(prefix, y, i=i):
            return (stream_key("q", i, *prefix, y) % 997) / 997.0 - 0.5

        cfg = DecodeConfig(mode="mmi_q", beam=400, weight=0.7, cap=4)
        gtop = guided_beam_search(m, CallableScorer(fn, 7), src, cfg)[0]
        goracle = exhaustive_decode(m, CallableScorer(fn, 7), src,
                                    DecodeConfig(mode="mmi_q", weight=0.7, cap=4))
        assert gtop.tokens == goracle.tokens, f"model {i}: guided diverged"
        assert gtop.combined == pytest.approx(goracle.combined, abs=1e-9)
        checked += 1
    assert checked >= 50
    finish(2, "oracle equivalence", f"{checked} models, plain and guided",
           t0, 120)


def test_criterion_3_weight_zero_reduction():
    # at weight 0 every guided mode must reproduce the plain-search
    # token sequences; length_q keeps its selection protocol, so its
    # reference arm is protocol search without a regressor
    t0 = time.perf_counter()
    corpus = gen_task(TaskSpec("copy", vocab=6, min_len=1, max_len=5,
                               pairs=200, seed=3))
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=16,
                    max_len=8, seed=3)
    train_mle(model, corpus, TrainSchedule(epochs=3, batch_size=32, lr=5e-3,
                                           seed=3))
    reg = train_length_q(model, corpus,
                         TrainSchedule(epochs=2, batch_size=32, lr=5e-3, seed=4))
    ensemble = train_backward_q_option2(
        corpus, TrainSchedule(epochs=1, batch_size=32, lr=5e-3, seed=5),
        hidden=8, max_len=8)
    backward = train_backward_model(
        corpus, TrainSchedule(epochs=2, batch_size=32, lr=5e-3, seed=6),
        hidden=16, max_len=8)
    records = generate_rollouts(model, subcorpus(corpus, corpus.pairs[:12]),
                                RolloutConfig(seed=7))
    predictor = train_outcome_q(records,
                                TrainSchedule(epochs=2, batch_size=32,
                                              lr=5e-3, seed=8),
                                len(corpus.src_vocab), len(corpus.tgt_vocab),
                                hidden=8)

    sbs, _ = decode_corpus(model, corpus, DecodeConfig(mode="sbs", beam=7))
    sbs_lines = hyp_lines(sbs)
    protocol, _ = decode_corpus(model, corpus,
                                DecodeConfig(mode="sbs", beam=7,
                                             use_length_protocol=True))
    protocol_lines = hyp_lines(protocol)

    arms = {
        "mmi_q": dict(scorer_factory=lambda pair: PartialBackwardScorer(ensemble)),
        "outcome_q": dict(scorer_factory=lambda pair: OutcomeScorer(predictor)),
        "mmi_rerank": dict(backward=backward),
        "length_q": dict(scorer_factory=lambda pair: reg),
    }
    for mode, extra in arms.items():
        recs, stats = decode_corpus(model, corpus,
                                    DecodeConfig(mode=mode, beam=7, weight=0.0),
                                    **extra)
        assert stats["errors"] == 0
        want = protocol_lines if mode == "length_q" else sbs_lines
        assert hyp_lines(recs) == want, f"{mode} at weight 0 diverged"
    finish(3, "weight-zero reduction",
           f"4 modes x {len(corpus.pairs)} pairs identical", t0, 120)


def test_criterion_4_length_control():
    # demanded length is offset one below gold so the search has to
    # close early; the remaining-length term must beat pure likelihood
    # at the admission step by at least five points absolute
    t0 = time.perf_counter()
    corpus = gen_task(TaskSpec("num2words", vocab=0, min_len=1, max_len=8,
                               pairs=500, seed=17))
    train, dev, _ = split(corpus, (0.6, 0.3, 0.1), seed=17)
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=48,
                    max_len=14, seed=17)
    train_mle(model, train, TrainSchedule(epochs=70, batch_size=32, lr=5e-3,
                                          seed=17))
    reg = train_length_q(model, train,
                         TrainSchedule(epochs=60, batch_size=32, lr=5e-3,
                                       seed=18))
    _, train_labels, _ = length_examples(model, train)
    dev_feats, dev_labels, _ = length_examples(model, dev)
    report = dev_report(reg.predict(dev_feats), dev_labels, train_labels)
    ratio = report["mse"] / report["baseline_mse"]
    assert ratio < 0.5, f"num2words regressor mse ratio {ratio:.3f}"

    base_cfg = DecodeConfig(mode="sbs", beam=5, use_length_protocol=True)
    guided_cfg = DecodeConfig(mode="length_q", beam=5, weight=1.0)
    base, guided, targets = [], [], []
    for pair in dev.pairs:
        want = max(1, pair.n - 1)
        targets.append(want)
        base.append(length_forced_select(model, None, pair.src, want, base_cfg))
        guided.append(length_forced_select(model, reg, pair.src, want, guided_cfg))
    rate_base = exact_length_rate(base, targets)
    rate_guided = exact_length_rate(guided, targets)
    gap = rate_guided - rate_base
    assert gap >= 0.05, (f"exact-length rate {rate_guided:.3f} vs protocol "
                         f"baseline {rate_base:.3f}, gap {gap:+.3f} < 0.05")

    # same regressor contract on the copy task
    cc = gen_task(TaskSpec("copy", vocab=6, min_len=2, max_len=6, pairs=200,
                           seed=19))
    ctrain, cdev, _ = split(cc, (0.8, 0.1, 0.1), seed=19)
    cmodel = Seq2Seq(len(cc.src_vocab), len(cc.tgt_vocab), hidden=24,
                     max_len=10, seed=19)
    train_mle(cmodel, ctrain, TrainSchedule(epochs=10, batch_size=32, lr=5e-3,
                                            seed=19))
    creg = train_length_q(cmodel, ctrain,
                          TrainSchedule(epochs=30, batch_size=32, lr=5e-3,
                                        seed=20))
    _, ctrain_labels, _ = length_examples(cmodel, ctrain)
    cfeats, clabels, _ = length_examples(cmodel, cdev)
    creport = dev_report(creg.predict(cfeats), clabels, ctrain_labels)
    cratio = creport["mse"] / creport["baseline_mse"]
    assert cratio < 0.5, f"copy regressor mse ratio {cratio:.3f}"
    finish(4, "length control",
           f"rate {rate_guided:.3f} vs {rate_base:.3f} (gap {gap:+.3f} >= 0.05), "
           f"mse ratios {ratio:.3f}/{cratio:.3f} < 0.5", t0, 900)


def test_criterion_5_mmi_direction():
    # per-step backward guidance must out-diversify n-best reranking,
    # which must out-diversify plain search, and the share of generic
    # replies must fall by a fifth or more
    t0 = time.perf_counter()
    corpus = gen_task(TaskSpec("dialogue", pairs=400, seed=31))
    train = subcorpus(corpus, corpus.pairs[:320])
    dev = subcorpus(corpus, corpus.pairs[320:])
    forward = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=32,
                      max_len=10, seed=5)
    train_mle(forward, train, TrainSchedule(epochs=35, batch_size=32, lr=3e-3,
                                            seed=5))
    backward = train_backward_model(
        train, TrainSchedule(epochs=100, batch_size=32, lr=1e-2, seed=7),
        hidden=32, max_len=10)
    ensemble = train_backward_q_option2(
        train, TrainSchedule(epochs=60, batch_size=32, lr=1e-2, seed=9),
        hidden=24, max_len=10)
    generic = " ".join(GENERIC_REPLY)

    def arm_stats(records):
        hyps = [r["hyp"].split() for r in records]
        rate = float(np.mean([" ".join(h) == generic for h in hyps]))
        return distinct_n(hyps, 2), rate

    recs, _ = decode_corpus(forward, dev, DecodeConfig(mode="sbs", beam=7))
    d2_sbs, generic_sbs = arm_stats(recs)
    recs, _ = decode_corpus(forward, dev,
                            DecodeConfig(mode="mmi_rerank", beam=7, weight=1.0),
                            backward=backward)
    d2_rerank, _ = arm_stats(recs)
    best_d2, best_generic, best_lam = -1.0, None, None
    for lam in (0.5, 1.0, 2.0):
        recs, stats = decode_corpus(
            forward, dev, DecodeConfig(mode="mmi_q", beam=7, weight=lam),
            scorer_factory=lambda pair: PartialBackwardScorer(ensemble))
        assert stats["errors"] == 0
        d2, generic_rate = arm_stats(recs)
        if d2 > best_d2:
            best_d2, best_generic, best_lam = d2, generic_rate, lam
    assert best_d2 > d2_rerank > d2_sbs, (
        f"distinct-2 order broken: q={best_d2:.4f} rerank={d2_rerank:.4f} "
        f"sbs={d2_sbs:.4f}")
    assert generic_sbs > 0
    drop = (generic_sbs - best_generic) / generic_sbs
    assert drop >= 0.20, f"generic-reply drop {drop:.2%} < 20%"
    finish(5, "mmi direction",
           f"distinct-2 {best_d2:.3f} > {d2_rerank:.3f} > {d2_sbs:.3f} "
           f"(lambda {best_lam}), generic {generic_sbs:.2f} -> "
           f"{best_generic:.2f} ({drop:.0%} drop)", t0, 1200)


def test_criterion_6_outcome_q_direction():
    # an outcome head trained on sampled completions must never hurt
    # corpus BLEU at the best grid weight and must strictly help on at
    # least three of five seeded reruns of a deliberately undertrained
    # model (training stops once dev perplexity reaches 2)
    t0 = time.perf_counter()
    wins, deltas = 0, []
    for s in range(5):
        corpus = gen_task(TaskSpec("reverse", vocab=12, min_len=3, max_len=8,
                                   pairs=400, seed=100 + s))
        train, dev, _ = split(corpus, (0.7, 0.2, 0.1), seed=s)
        model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=48, max_len=12, seed=s)
        for ep in range(1, 61):
            train_mle(model, train,
                      TrainSchedule(epochs=1, batch_size=32, lr=5e-3,
                                    seed=s * 100 + ep))
            if float(np.exp(dataset_ce(model, dev))) <= 2.0:
                break
        records = generate_rollouts(model,
                                    subcorpus(train, train.pairs[:150]),
                                    RolloutConfig(metric="bleu", seed=1000 + s))
        predictor = train_outcome_q(records,
                                    TrainSchedule(epochs=40, batch_size=32,
                                                  lr=5e-3, seed=2000 + s),
                                    len(corpus.src_vocab),
                                    len(corpus.tgt_vocab), hidden=32)
        refs = [corpus.tgt_vocab.decode(p.tgt[:-1]) for p in dev.pairs]

        def corpus_bleu(records, refs=refs):
            assert all("error" not in r for r in records)
            return bleu([r["hyp"].split() for r in records], refs, smooth=True)

        recs, _ = decode_corpus(model, dev, DecodeConfig(mode="sbs", beam=7))
        score_sbs = corpus_bleu(recs)
        best = -1.0
        for lam in (0.5, 1.0, 2.0):
            recs, _ = decode_corpus(
                model, dev, DecodeConfig(mode="outcome_q", beam=7, weight=lam),
                scorer_factory=lambda pair: OutcomeScorer(predictor))
            best = max(best, corpus_bleu(recs))
        assert best >= score_sbs, (
            f"seed {s}: outcome_q {best:.4f} < sbs {score_sbs:.4f}")
        deltas.append(best - score_sbs)
        wins += best > score_sbs
    assert wins >= 3, f"strict BLEU improvement on {wins}/5 reruns"
    finish(6, "outcome direction",
           f"{wins}/5 strict wins, deltas "
           + " ".join(f"{d:+.4f}" for d in deltas), t0, 1800)


def test_criterion_7_metric_pinning():
    t0 = time.perf_counter()
    ident = ["the", "black", "cat", "sat"]
    assert bleu([ident], [list(ident)]) == 1.0

    hyp = "the the the".split()
    ref = "the cat".split()
    counts = ngram_counts(hyp, 1)
    refc = ngram_counts(ref, 1)
    p1 = sum(min(c, refc[g]) for g, c in counts.items()) / sum(counts.values())
    assert p1 == pytest.approx(1 / 3)
    assert bleu([hyp], [ref], max_order=2) == 0.0

    long_ref = [f"t{i}" for i in range(10)]
    assert bleu([long_ref[:5]], [long_ref]) == pytest.approx(math.exp(-1),
                                                             abs=1e-12)

    assert rouge2(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert rouge2(["a"], ["a", "b", "c"]) == 0.0
    assert rouge2(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(0.5)

    assert distinct_n([["a", "b"], ["a", "c"]], 1) == pytest.approx(0.75)
    assert distinct_n([["x", "x", "x"]], 1) == pytest.approx(1 / 3)
    assert distinct_n([["z"]] * 4, 1) == pytest.approx(1 / 4)
    # denominator is the token count: two distinct bigrams over four
    # tokens, not over two bigram slots
    assert distinct_n([["a", "b"], ["a", "c"]], 2) == pytest.approx(0.5)

    assert exact_length_rate([[1, 1], [1, 1, 1]], [2, 3]) == 1.0
    assert exact_length_rate([[1]], [3]) == 0.0
    assert exact_length_rate([[1, 1], [1, 1, 1], [1], [1] * 4],
                             [2, 3, 4, 4]) == 0.75
    finish(7, "metric pinning", "all hand examples exact", t0, 1)


def test_criterion_8_rollout_consistency():
    # every stored outcome label must equal the metric recomputed from
    # the record's own completion against the pair's gold target
    t0 = time.perf_counter()
    corpus = gen_task(TaskSpec("copy", vocab=6, min_len=4, max_len=6,
                               pairs=130, seed=8))
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=24,
                    max_len=10, seed=8)
    train_mle(model, corpus, TrainSchedule(epochs=6, batch_size=32, lr=5e-3,
                                           seed=8))
    half = len(corpus.pairs) // 2
    batches = [
        (subcorpus(corpus, corpus.pairs[:half]),
         RolloutConfig(metric="bleu", seed=81), sentence_bleu),
        (subcorpus(corpus, corpus.pairs[half:]),
         RolloutConfig(metric="rouge2", seed=82), rouge2),
    ]
    total, exact = 0, 0
    for sub, cfg, metric in batches:
        records = generate_rollouts(model, sub, cfg)
        at = 0
        for pair in sub.pairs:
            gold = list(pair.tgt[:-1])
            for _ in range(min(cfg.positions, pair.n) * cfg.samples):
                rec = records[at]
                at += 1
                total += 1
                want = metric(rec["completed"][:-1], gold)
                exact += abs(rec["q"] - want) <= 1e-6
        assert at == len(records)
    assert total >= 1000, f"only {total} rollout records"
    assert exact == total, f"{total - exact} of {total} labels diverged"
    finish(8, "rollout consistency", f"{exact}/{total} labels within 1e-6",
           t0, 60)


def test_criterion_9_determinism(tmp_path):
    # the full command pipeline must be bit-reproducible: same config
    # and seed give identical checkpoint and decode bytes
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "task": {"name": "copy", "vocab": 6, "min_len": 1, "max_len": 5,
                 "pairs": 200},
        "model": {"hidden": 24, "max_len": 8},
        "train": {"epochs": 8, "lr": 0.005},
        "decode": {"beam": 5},
    }))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "1"]) == 0
        assert main(["decode", "--config", str(cfg), "--out", str(out),
                     "--seed", "1"]) == 0
        outs.append(out)
    a, b = outs
    names = ("forward.fdq", "decode.ndjson", "refs.ndjson")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (
            f"{name} differs between reruns")
    finish(9, "determinism", "checkpoint and decode bytes identical", t0, 900)
