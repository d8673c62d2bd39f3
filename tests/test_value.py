"""Value estimators: label oracles, baselines, routing, rollouts."""

import json

import numpy as np
import pytest

from fdq.data import EOS, Corpus, SequencePair, TaskSpec, gen_task, make_batch, split
from fdq.decode import (BATCH_ATOL, NEG_SENTINEL, DecodeConfig, Engine,
                        guided_beam_search)
from fdq.errors import (CheckpointError, ConfigError, ContractError,
                        DimensionError, LoadError)
from fdq.metrics import rouge2, sentence_bleu
from fdq.seq2seq import Seq2Seq, TrainSchedule, batch_logprobs, train_mle
from fdq.value import (DEFAULT_BUCKETS, BackwardRegressor, LengthRegressor,
                       OutcomePredictor, OutcomeScorer,
                       PartialBackwardEnsemble, PartialBackwardScorer,
                       RolloutConfig, backward_examples, dev_report,
                       generate_rollouts, length_examples, load_rollouts, mse,
                       save_rollouts, swap_corpus, train_backward_model,
                       train_backward_q_option1, train_backward_q_option2,
                       train_length_q, train_outcome_q)
from reference import forced_states, sampled_action, step_logprobs


def bucket_scores(ensemble, src, prefixes):
    """Batched log p(X | prefix) under the bucket model owning each prefix."""
    return [batch_logprobs(ensemble.models[ensemble.bucket_index(len(p))],
                           [SequencePair(list(p), list(src) + [EOS])])[0]
            for p in prefixes]


def outcome_mse(predictor, records):
    pred = predictor.predict([r["src"] for r in records],
                             [r["prefix"] for r in records])
    return mse(pred, [r["q"] for r in records])


def beats_baseline(reg, train_labels, dev_feats, dev_labels):
    report = dev_report(reg.predict(dev_feats), dev_labels, train_labels)
    return report["mse"] < report["baseline_mse"]


def subcorpus(corpus, pairs):
    return Corpus(list(pairs), corpus.src_vocab, corpus.tgt_vocab,
                  dict(corpus.provenance))


@pytest.fixture(scope="module")
def copy_rig():
    corpus = gen_task(TaskSpec("copy", vocab=6, min_len=1, max_len=6,
                               pairs=400, seed=21))
    train, dev, _ = split(corpus, (0.8, 0.1, 0.1), seed=1)
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                    hidden=32, max_len=10, seed=3)
    train_mle(model, train, TrainSchedule(epochs=25, batch_size=32,
                                          lr=5e-3, seed=3))
    return train, dev, model


@pytest.fixture(scope="module")
def weak_copy_rig():
    corpus = gen_task(TaskSpec("copy", vocab=6, min_len=2, max_len=6,
                               pairs=120, seed=22))
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                    hidden=24, max_len=10, seed=4)
    train_mle(model, corpus, TrainSchedule(epochs=6, batch_size=32,
                                           lr=3e-3, seed=4))
    return corpus, model


@pytest.fixture(scope="module")
def dialogue_rig():
    # the backward direction needs long schedules: the template mapping
    # has only ~10 examples per class, so short runs stall at the
    # source-independent entropy floor and never separate reply types
    corpus = gen_task(TaskSpec("dialogue", pairs=400, seed=31))
    train = subcorpus(corpus, corpus.pairs[:320])
    dev = subcorpus(corpus, corpus.pairs[320:])
    forward = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                      hidden=32, max_len=10, seed=5)
    train_mle(forward, train, TrainSchedule(epochs=25, batch_size=32,
                                            lr=3e-3, seed=5))
    backward = train_backward_model(train, TrainSchedule(epochs=100,
                                                         batch_size=32,
                                                         lr=1e-2, seed=7),
                                    hidden=32, max_len=10)
    ensemble = train_backward_q_option2(train, TrainSchedule(epochs=60,
                                                             batch_size=32,
                                                             lr=1e-2, seed=9),
                                        hidden=24, max_len=10)
    return train, dev, forward, backward, ensemble


@pytest.fixture(scope="module")
def outcome_rig(dialogue_rig):
    # dialogue sources admit several valid replies, so sampled rollouts
    # spread the outcome labels; a converged copy model would pin nearly
    # every label at 1.0 and leave nothing to regress on
    train, dev, forward, _, _ = dialogue_rig
    records = generate_rollouts(forward,
                                subcorpus(train, train.pairs[:150]),
                                RolloutConfig(seed=11))
    cut = int(0.8 * len(records))
    predictor = train_outcome_q(records[:cut],
                                TrainSchedule(epochs=60, batch_size=32,
                                              lr=5e-3, seed=13),
                                len(train.src_vocab), len(train.tgt_vocab),
                                hidden=32)
    return train, dev, forward, records[:cut], records[cut:], predictor


class TestLengthExamples:
    def test_labels_are_remaining_counts(self):
        corpus = gen_task(TaskSpec("copy", vocab=5, min_len=5, max_len=5,
                                   pairs=3, seed=1))
        model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=4, max_len=8, seed=0)
        feats, labels, index = length_examples(model, corpus)
        assert len(feats) == sum(p.n for p in corpus.pairs)
        for (i, t), label in zip(index, labels):
            assert label == corpus.pairs[i].n - t
        # t=2 of an N=5 target labels 3; t=N labels 0
        assert labels[index[:, 1] == 2][0] == 3.0
        assert labels[index[:, 1] == 5][0] == 0.0

    def test_labels_telescope(self):
        corpus = gen_task(TaskSpec("copy", vocab=5, min_len=2, max_len=6,
                                   pairs=8, seed=2))
        model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=4, max_len=8, seed=0)
        _, labels, index = length_examples(model, corpus)
        for j in range(len(labels) - 1):
            same_pair = index[j][0] == index[j + 1][0]
            if same_pair and index[j + 1][1] == index[j][1] + 1:
                assert labels[j] == labels[j + 1] + 1

    def test_features_match_forced_states(self):
        corpus = gen_task(TaskSpec("copy", vocab=5, min_len=3, max_len=3,
                                   pairs=2, seed=3))
        model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=4, max_len=8, seed=0)
        feats, _, index = length_examples(model, corpus)
        for (i, t), f in zip(index, feats):
            states = forced_states(model, make_batch([corpus.pairs[i]]))
            assert np.allclose(f, states[0, t], atol=1e-6)

    def test_untrained_model_rejected(self):
        corpus = gen_task(TaskSpec("copy", vocab=5, pairs=4, seed=4))
        model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=4, seed=0)
        with pytest.raises(ContractError):
            train_length_q(model, corpus, TrainSchedule(epochs=1))


class TestLengthRegressor:
    def test_beats_constant_baseline(self, copy_rig):
        train, dev, model = copy_rig
        sched = TrainSchedule(epochs=60, batch_size=32, lr=3e-3, seed=17)
        reg = train_length_q(model, train, sched)
        tf, tl, _ = length_examples(model, train)
        df, dl, _ = length_examples(model, dev)
        assert beats_baseline(reg, tl, df, dl)

    def test_long_source_early_prediction(self, copy_rig):
        train, dev, model = copy_rig
        sched = TrainSchedule(epochs=60, batch_size=32, lr=3e-3, seed=17)
        reg = train_length_q(model, train, sched)
        pair = next(p for p in dev.pairs if p.n == 6)
        states = forced_states(model, make_batch([pair]))
        assert abs(reg.predict(states[0, 1][None])[0] - 5.0) <= 1.5

    def test_predict_contract(self):
        reg = LengthRegressor(8, seed=0)
        h = np.linspace(-1, 1, 8).astype(np.float32)
        a = reg.predict(h[None])[0]
        b = reg.predict(h[None])[0]
        assert a == b and np.isfinite(a)
        with pytest.raises(DimensionError):
            reg.predict(np.zeros(5))
        with pytest.raises(DimensionError):
            reg.predict(np.zeros((2, 5)))

    def test_checkpoint_round_trip(self, tmp_path):
        reg = LengthRegressor(6, seed=2)
        path = tmp_path / "len.fdq"
        reg.save(path)
        back = LengthRegressor.load(path)
        h = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
        assert np.array_equal(reg.predict(h), back.predict(h))

    def test_wrong_tag_rejected(self, tmp_path):
        reg = LengthRegressor(6, seed=2)
        path = tmp_path / "len.fdq"
        reg.save(path)
        with pytest.raises(CheckpointError):
            BackwardRegressor.load(path)


class TestBackwardModel:
    def test_swap_corpus_moves_eos(self):
        corpus = gen_task(TaskSpec("copy", vocab=5, min_len=2, max_len=4,
                                   pairs=6, seed=5))
        swapped = swap_corpus(corpus)
        for orig, swap in zip(corpus.pairs, swapped.pairs):
            assert swap.src == orig.tgt[:-1]
            assert swap.tgt == orig.src + [EOS]
        assert swapped.src_vocab is corpus.tgt_vocab
        assert swapped.tgt_vocab is corpus.src_vocab

    def test_training_reduces_swapped_ce(self):
        corpus = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=4,
                                   pairs=120, seed=6))
        seen = []
        train_backward_model(corpus, TrainSchedule(epochs=6, batch_size=32,
                                                   lr=3e-3, seed=8),
                             hidden=16, max_len=8, log=seen.append)
        assert seen[-1]["train_ce"] < seen[0]["train_ce"]

    def test_parameters_disjoint_and_finite_scores(self, dialogue_rig):
        train, dev, forward, backward, _ = dialogue_rig
        fwd_ids = {id(p) for p in forward.params()}
        assert fwd_ids.isdisjoint({id(p) for p in backward.params()})
        scores = batch_logprobs(backward, swap_corpus(dev).pairs[:10])
        assert np.isfinite(scores).all()


class TestBackwardOption1:
    def test_labels_constant_and_recomputable(self, dialogue_rig):
        train, dev, forward, backward, _ = dialogue_rig
        sub = subcorpus(train, train.pairs[:8])
        _, labels, index = backward_examples(forward, backward, sub)
        for (i, t), label in zip(index, labels):
            want = sum(step_logprobs(backward, list(sub.pairs[i].tgt[:-1]),
                                     list(sub.pairs[i].src) + [EOS]))
            assert label == pytest.approx(want, rel=0, abs=BATCH_ATOL)
        for i in range(len(sub.pairs)):
            pair_labels = labels[index[:, 0] == i]
            assert np.all(pair_labels == pair_labels[0])

    def test_beats_constant_baseline_on_dialogue(self, dialogue_rig):
        train, dev, forward, backward, _ = dialogue_rig
        sched = TrainSchedule(epochs=150, batch_size=32, lr=5e-3, seed=19)
        reg = train_backward_q_option1(forward, backward, train, sched)
        tf, tl, _ = backward_examples(forward, backward, train)
        df, dl, _ = backward_examples(forward, backward, dev)
        assert beats_baseline(reg, tl, df, dl)

    def test_untrained_inputs_rejected(self, dialogue_rig):
        train, _, forward, backward, _ = dialogue_rig
        fresh = Seq2Seq(forward.src_vocab, forward.tgt_vocab, hidden=8, seed=1)
        with pytest.raises(ContractError):
            train_backward_q_option1(fresh, backward, train, TrainSchedule())
        with pytest.raises(ContractError):
            train_backward_q_option1(forward, fresh, train, TrainSchedule())


class TestBucketRouting:
    def test_default_buckets_route(self):
        ens = PartialBackwardEnsemble(
            DEFAULT_BUCKETS, {0: object()})
        assert ens.bucket_index(1) == 0
        assert ens.bucket_index(3) == 1
        assert ens.bucket_index(7) == 2
        assert ens.bucket_index(12) == 3
        assert ens.bucket_index(40) == 4

    def test_bad_bucket_specs(self):
        for bad in (((2, 4), (5, None)),        # gap at 1
                    ((1, 2), (4, None)),        # gap at 3
                    ((1, 2), (3, 5)),           # closed final bucket
                    ()):
            with pytest.raises(ConfigError):
                PartialBackwardEnsemble(bad, {0: object()})

    def test_missing_bucket_raises_and_nearest_falls_back(self, dialogue_rig):
        *_, ensemble = dialogue_rig
        assert sorted(ensemble.models) == [0, 1]   # dialogue lengths 1..4
        assert ensemble.bucket_index(6) == 2
        assert ensemble.nearest_model(6) is ensemble.models[1]

    def test_zero_length_prefix_rejected(self, dialogue_rig):
        *_, ensemble = dialogue_rig
        with pytest.raises(ConfigError):
            ensemble.bucket_index(0)
        with pytest.raises(ConfigError):
            ensemble.nearest_model(0)


class TestBackwardOption2:
    def test_one_bucket_matches_plain_mle_on_every_prefix(self):
        # one open bucket holds every prefix, so its model is train_mle
        # on the (y_{1:t} -> X) corpus, under the same seed
        corpus = gen_task(TaskSpec("copy", vocab=4, min_len=1, max_len=4,
                                   pairs=80, seed=9))
        sched = TrainSchedule(epochs=4, batch_size=16, lr=3e-3, seed=23)
        prefixes = Corpus([SequencePair(p.tgt[:t], list(p.src) + [EOS])
                           for p in corpus.pairs for t in range(1, p.n + 1)],
                          corpus.tgt_vocab, corpus.src_vocab, {})
        plain = Seq2Seq(len(corpus.tgt_vocab), len(corpus.src_vocab),
                        hidden=12, max_len=8, seed=sched.seed)
        train_mle(plain, prefixes, sched)
        ens = train_backward_q_option2(corpus, sched, buckets=((1, None),),
                                       hidden=12, max_len=8)
        got, want = ens.models[0].to_named(), plain.to_named()
        assert sorted(got) == sorted(want)
        for name, arr in want.items():
            assert np.array_equal(got[name], arr), name

    def test_example_routing_is_exhaustive(self, dialogue_rig):
        train, *_ , ensemble = dialogue_rig
        want = sum(p.n for p in train.pairs)
        assert sum(ensemble.example_counts.values()) == want

    def test_specific_reply_scores_above_generic(self, dialogue_rig):
        train, dev, _, _, ensemble = dialogue_rig
        gen_ids = train.tgt_vocab.encode(["i", "am", "not", "sure"])
        gaps = []
        for pair in dev.pairs:
            toks = train.tgt_vocab.decode(pair.tgt[:-1])
            if toks[0] == "i":   # the shared generic reply
                continue
            spec, gen = bucket_scores(ensemble, pair.src,
                                      [pair.tgt[:-1], gen_ids])
            gaps.append(spec - gen)
            if len(gaps) >= 20:
                break
        assert np.mean(gaps) > 0

    def test_full_target_estimates_track_plain_backward(self, dialogue_rig):
        train, dev, _, backward, ensemble = dialogue_rig
        ours, theirs = [], []
        for pair in (train.pairs[:50] + dev.pairs[:50]):
            ours += bucket_scores(ensemble, pair.src, [pair.tgt[:-1]])
        theirs = batch_logprobs(backward, swap_corpus(
            subcorpus(train, train.pairs[:50] + dev.pairs[:50])).pairs)
        rank = lambda v: np.argsort(np.argsort(v)).astype(np.float64)
        ra, rb = rank(ours), rank(theirs)
        rho = np.corrcoef(ra, rb)[0, 1]
        assert rho > 0.5

    def test_checkpoint_round_trip(self, dialogue_rig, tmp_path):
        train, *_, ensemble = dialogue_rig
        path = tmp_path / "ens.fdq"
        ensemble.save(path)
        back = PartialBackwardEnsemble.load(path)
        assert back.buckets == ensemble.buckets
        assert sorted(back.models) == sorted(ensemble.models)
        pair = train.pairs[0]
        assert bucket_scores(back, pair.src, [pair.tgt[:-1]]) == \
            bucket_scores(ensemble, pair.src, [pair.tgt[:-1]])


class TestRollouts:
    def test_count_and_self_consistency(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:12])
        cfg = RolloutConfig(positions=4, samples=2, seed=41)
        records = generate_rollouts(model, sub, cfg)
        assert len(records) == sum(min(4, p.n) * 2 for p in sub.pairs)
        at = 0
        for pair in sub.pairs:
            gold = list(pair.tgt[:-1])
            for _ in range(min(4, pair.n) * 2):
                rec = records[at]
                at += 1
                assert rec["src"] == list(pair.src)
                assert rec["completed"][-1] == EOS
                content = rec["completed"][:-1]
                assert rec["q"] == pytest.approx(
                    sentence_bleu(content, gold), abs=1e-12)
                # prefix = gold up to t-1 plus the sampled action
                assert rec["prefix"][:-1] == gold[:rec["t"] - 1]

    @pytest.mark.parametrize("prefix_source", ["gold", "decoded"])
    def test_actions_match_a_fresh_replay(self, dialogue_rig,
                                          prefix_source):
        # one replay per pair serves all its positions; each action is
        # still the draw a from-scratch replay of its own prefix gives
        corpus, _, model, _, _ = dialogue_rig
        sub = subcorpus(corpus, corpus.pairs[:8])
        cfg = RolloutConfig(prefix_source=prefix_source, seed=45)
        records = generate_rollouts(model, sub, cfg)
        assert len(records) > len(sub.pairs)
        for rec in records:
            assert rec["prefix"][-1] == sampled_action(
                model, rec["src"], rec["prefix"][:-1], rec["seed"])

    def test_degenerate_eos_sample(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:30])
        records = generate_rollouts(model, sub, RolloutConfig(seed=43))
        ended = [r for r in records if r["prefix"][-1] == EOS]
        assert ended, "no sampled-EOS rollout in this draw"
        for rec in ended:
            assert rec["completed"] == rec["prefix"]

    def test_deterministic_and_seed_sensitive(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:10])
        a = generate_rollouts(model, sub, RolloutConfig(seed=47))
        b = generate_rollouts(model, sub, RolloutConfig(seed=47))
        c = generate_rollouts(model, sub, RolloutConfig(seed=48))
        assert a == b
        assert a != c

    def test_rouge_metric_and_validation(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:4])
        records = generate_rollouts(model, sub,
                                    RolloutConfig(metric="rouge2", seed=3))
        at = 0
        for pair in sub.pairs:
            gold = list(pair.tgt[:-1])
            for _ in range(min(4, pair.n) * 2):
                rec = records[at]
                at += 1
                content = rec["completed"][:-1]
                assert rec["q"] == pytest.approx(rouge2(content, gold))
        with pytest.raises(ConfigError):
            RolloutConfig(metric="meteor").validate()
        with pytest.raises(ConfigError):
            RolloutConfig(positions=0).validate()

    def test_decoded_prefix_source(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:6])
        cfg = RolloutConfig(prefix_source="decoded", seed=51)
        a = generate_rollouts(model, sub, cfg)
        b = generate_rollouts(model, sub, cfg)
        assert a == b
        for rec in a:
            assert rec["completed"][-1] == EOS

    def test_empty_corpus_and_untrained(self, weak_copy_rig):
        corpus, model = weak_copy_rig
        empty = subcorpus(corpus, [])
        assert generate_rollouts(model, empty, RolloutConfig()) == []
        fresh = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab),
                        hidden=8, seed=0)
        with pytest.raises(ContractError):
            generate_rollouts(fresh, corpus, RolloutConfig())

    def test_ndjson_round_trip(self, weak_copy_rig, tmp_path):
        corpus, model = weak_copy_rig
        sub = subcorpus(corpus, corpus.pairs[:5])
        records = generate_rollouts(model, sub, RolloutConfig(seed=53))
        path = tmp_path / "rollouts.ndjson"
        save_rollouts(path, records)
        assert load_rollouts(path) == records

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"src": [4], "q": 0.5}\n', encoding="utf-8")
        with pytest.raises(LoadError):
            load_rollouts(path)
        # a blank line, then a record with an extra field: named by line
        rec = {"src": [4], "prefix": [4], "t": 1, "completed": [4, EOS],
               "q": 0.5, "seed": 0}
        path.write_text("\n".join([json.dumps(rec), "",
                                   json.dumps(dict(rec, extra=1))]) + "\n",
                        encoding="utf-8")
        with pytest.raises(LoadError, match=f"{path}:3: fields"):
            load_rollouts(path)


class TestOutcomePredictor:
    def test_constant_labels_reach_zero_mse(self):
        rng = np.random.default_rng(0)
        records = [{"src": [4, 5], "prefix": [int(rng.integers(3, 7))],
                    "t": 1, "completed": [4, EOS], "q": 0.7, "seed": 0}
                   for _ in range(24)]
        pred = train_outcome_q(records, TrainSchedule(epochs=150,
                                                      batch_size=24,
                                                      lr=1e-2, seed=1),
                               8, 8, hidden=8)
        assert outcome_mse(pred, records) < 1e-3

    def test_dev_report_leaves_the_fit_unchanged(self):
        rng = np.random.default_rng(0)
        records = [{"src": [4, 5], "prefix": [int(rng.integers(3, 7))],
                    "t": 1, "completed": [4, EOS], "q": float(rng.random()),
                    "seed": 0} for _ in range(30)]
        train, dev = records[:24], records[24:]
        sched = TrainSchedule(epochs=5, batch_size=8, lr=1e-2, seed=1)
        plain = train_outcome_q(train, sched, 8, 8, hidden=8)
        pred = train_outcome_q(train, sched, 8, 8, hidden=8, dev=dev)
        assert not hasattr(plain, "dev_report")
        mean = float(np.mean([r["q"] for r in train]))
        assert pred.dev_report == {
            "mse": outcome_mse(pred, dev),
            "baseline_mse": float(np.mean(
                (np.array([r["q"] for r in dev]) - mean) ** 2))}
        for name, tensor in pred.p.items():
            assert np.array_equal(tensor.data, plain.p[name].data), name

    def test_beats_label_variance(self, outcome_rig):
        _, _, _, train_recs, dev_recs, predictor = outcome_rig
        pred = predictor.predict([r["src"] for r in dev_recs],
                                 [r["prefix"] for r in dev_recs])
        report = dev_report(pred, [r["q"] for r in dev_recs],
                            [r["q"] for r in train_recs])
        assert report["mse"] < report["baseline_mse"]

    def test_mean_prediction_near_mean_label(self, outcome_rig):
        _, _, _, train_recs, dev_recs, predictor = outcome_rig
        pred = np.mean(predictor.predict(
            [r["src"] for r in dev_recs], [r["prefix"] for r in dev_recs]))
        label = np.mean([r["q"] for r in dev_recs])
        assert abs(pred - label) <= 0.15

    def test_gold_prefixes_outscore_corrupted(self, outcome_rig):
        train, dev, _, _, _, predictor = outcome_rig
        rng = np.random.default_rng(7)
        gold_scores, bad_scores = [], []
        for pair in dev.pairs[:40]:
            gold = list(pair.tgt[:-1])
            t = max(1, len(gold) // 2)
            prefix = gold[:t]
            corrupt = [int(rng.integers(4, len(train.tgt_vocab)))
                       for _ in prefix]
            gold_scores.append(predictor.predict([pair.src], [prefix])[0])
            bad_scores.append(predictor.predict([pair.src], [corrupt])[0])
        assert np.mean(gold_scores) > np.mean(bad_scores)

    def test_predict_contract(self, outcome_rig):
        *_, predictor = outcome_rig
        a = predictor.predict([[4, 5]], [[4]])
        assert a.shape == (1,) and np.isfinite(a).all()
        assert np.array_equal(a, predictor.predict([[4, 5]], [[4]]))
        # a row of a batch is the row alone, up to float32 batching
        many = predictor.predict([[4, 5], [6], [4, 5]], [[4], [5, 4], [4]])
        assert many[2] == pytest.approx(a[0], rel=0, abs=BATCH_ATOL)
        for srcs, prefixes in (([[4, 5]], [[]]), ([[]], [[4]]),
                               ([[4]], [[10 ** 6]]), ([[4], [-1]], [[4], [4]])):
            with pytest.raises(ContractError):
                predictor.predict(srcs, prefixes)
        with pytest.raises(ValueError):
            predictor.predict([[4]], [[4], [4]])

    def test_checkpoint_round_trip(self, outcome_rig, tmp_path):
        *_, predictor = outcome_rig
        path = tmp_path / "outcome.fdq"
        predictor.save(path)
        back = OutcomePredictor.load(path)
        assert np.array_equal(back.predict([[4, 5, 6]], [[5, 4]]),
                              predictor.predict([[4, 5, 6]], [[5, 4]]))

    def test_training_requires_records(self):
        with pytest.raises(ContractError):
            train_outcome_q([], TrainSchedule(), 8, 8)


class TestScorers:
    def test_outcome_scorer_matches_predictor(self, outcome_rig):
        train, _, model, *_, predictor = outcome_rig
        src = train.pairs[0].src
        scorer = OutcomeScorer(predictor)
        cfg = DecodeConfig(mode="outcome_q", beam=3, weight=0.5)
        out = guided_beam_search(model, scorer, src, cfg)
        top = out.top()
        want = predictor.predict([src], [list(top.tokens)])[0]
        assert top.q_term == pytest.approx(want, rel=0, abs=BATCH_ATOL)
        assert top.combined == pytest.approx(top.logp + 0.5 * top.q_term,
                                             abs=1e-5)

    def test_partial_backward_scorer_matches_estimates(self, dialogue_rig):
        train, dev, forward, backward, ensemble = dialogue_rig
        src = dev.pairs[0].src
        scorer = PartialBackwardScorer(ensemble)
        cfg = DecodeConfig(mode="mmi_q", beam=3, weight=1.0)
        top = guided_beam_search(forward, scorer, src, cfg).top()
        content = list(top.content)
        model = ensemble.models[ensemble.bucket_index(len(content))]
        want = sum(step_logprobs(model, content, list(src) + [EOS]))
        assert top.q_term == pytest.approx(want, rel=0, abs=BATCH_ATOL)

    def test_partial_backward_scorer_empty_prefix_eos(self, dialogue_rig):
        train, dev, forward, backward, ensemble = dialogue_rig
        scorer = PartialBackwardScorer(ensemble)
        eng = Engine(forward, scorer, dev.pairs[0].src,
                     DecodeConfig(mode="mmi_q"))
        vec, rows = scorer.score_candidates(eng.root, eng.ctx)
        # the root's rows: one encoder step from zero state per candidate
        vt, hidden = forward.tgt_vocab, ensemble.nearest_model(1).hidden
        assert [r.shape for r in rows] == [(vt, 1, hidden), (vt, hidden),
                                           (vt, hidden)]
        assert np.array_equal(rows[0][:, 0], rows[1])
        assert vec[0, EOS] == NEG_SENTINEL
