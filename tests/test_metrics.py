"""Metric oracles: hand-counted n-gram examples and closed-form penalties."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq.cli import _metric_table, main
from fdq.errors import ConfigError, ContractError
from fdq.metrics import (bleu, distinct_n, exact_length_rate, ngram_counts,
                         rouge2, sentence_bleu)


def toks(s):
    return s.split()


class TestBleu:
    def test_identity_scores_one(self):
        hyps = [toks("the cat sat"), toks("a b c d e")]
        assert bleu(hyps, hyps) == pytest.approx(1.0)

    def test_clipping_hand_count(self):
        # hyp "the the the" vs ref "the cat": p1 clipped to 1/3, p2 = 0
        hyp = [toks("the the the")]
        ref = [toks("the cat")]
        assert bleu(hyp, ref, max_order=2) == 0.0
        p1_only = bleu(hyp, ref, max_order=1)
        # hyp longer than ref, so BP = 1 and BLEU-1 is exactly p1
        assert p1_only == pytest.approx(1.0 / 3.0)

    def test_brevity_penalty_closed_form(self):
        hyp = [toks("a b c d e")]
        ref = [toks("a b c d e f g h i j")]
        got = bleu(hyp, ref, max_order=1)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_empty_hypothesis_is_zero(self):
        assert bleu([[]], [toks("a b")]) == 0.0
        assert sentence_bleu([], toks("a b")) == 0.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            bleu([toks("a")], [toks("a"), toks("b")])

    def test_smoothing_keeps_partial_match_positive(self):
        got = sentence_bleu(toks("the cat sat"), toks("the cat slept"))
        assert 0.0 < got < 1.0

    def test_smoothing_never_rescues_zero_unigram_overlap(self):
        assert sentence_bleu(toks("x y z"), toks("a b c")) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6),
                    min_size=2, max_size=5),
           st.randoms(use_true_random=False))
    def test_corpus_order_invariance(self, refs, rand):
        hyps = [list(reversed(r)) for r in refs]
        base = bleu(hyps, refs)
        order = list(range(len(refs)))
        rand.shuffle(order)
        permuted = bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert permuted == pytest.approx(base, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=0, max_size=10),
           st.lists(st.integers(0, 8), min_size=1, max_size=10))
    def test_range(self, hyp, ref):
        assert 0.0 <= sentence_bleu(hyp, ref) <= 1.0


class TestRouge2:
    def test_identity(self):
        assert rouge2(toks("a b c"), toks("a b c")) == pytest.approx(1.0)

    def test_short_hypothesis_is_zero(self):
        assert rouge2(toks("a"), toks("a b c")) == 0.0

    def test_hand_count(self):
        assert rouge2(toks("a b c"), toks("a b d")) == pytest.approx(0.5)

    def test_alpha_one_is_recall(self):
        # hyp bigrams {ab}, ref bigrams {ab, bc}: P=1, R=1/2
        got = rouge2(toks("a b"), toks("a b c"), alpha=1.0)
        assert got == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=0, max_size=8),
           st.lists(st.integers(0, 5), min_size=0, max_size=8))
    def test_range_and_symmetric_zero(self, hyp, ref):
        got = rouge2(hyp, ref)
        assert 0.0 <= got <= 1.0


class TestDistinct:
    def test_hand_count(self):
        assert distinct_n([toks("a b"), toks("a c")], 1) == pytest.approx(0.75)

    def test_repeated_token(self):
        assert distinct_n([toks("x x x")], 1) == pytest.approx(1.0 / 3.0)

    def test_identical_singletons(self):
        assert distinct_n([["q"]] * 5, 1) == pytest.approx(1.0 / 5.0)

    def test_divides_by_tokens_not_ngrams(self):
        # 3 tokens but only 2 bigrams; the denominator must be 3
        assert distinct_n([toks("a b c")], 2) == pytest.approx(2.0 / 3.0)

    def test_empty_set(self):
        assert distinct_n([], 1) == 0.0
        assert distinct_n([[]], 2) == 0.0

    def test_bad_order(self):
        with pytest.raises(ContractError):
            distinct_n([toks("a")], 3)


class TestExactLength:
    def test_all_match(self):
        assert exact_length_rate([[1, 2], [3]], [2, 1]) == 1.0

    def test_none_match(self):
        assert exact_length_rate([[1, 2], [3]], [1, 2]) == 0.0

    def test_mixed(self):
        hyps = [[1], [1, 2], [1, 2, 3], [1]]
        assert exact_length_rate(hyps, [1, 2, 3, 2]) == pytest.approx(0.75)

    def test_mismatch_rejected(self):
        with pytest.raises(ContractError):
            exact_length_rate([[1]], [1, 2])


class TestReports:
    """The metric table `fdq eval` and `fdq compare` report."""

    def test_bleu_report_echoes_config(self, tmp_path):
        records = tmp_path / "refs.ndjson"
        records.write_text('{"id": 0, "hyp": "a b"}\n', encoding="utf-8")
        assert main(["eval", "--out", str(tmp_path / "run"),
                     "--set", f"eval.hyp={records}",
                     "--set", f"eval.ref={records}"]) == 0
        report = json.loads((tmp_path / "run" / "eval.json").read_text())
        assert report["metrics"]["bleu"] == pytest.approx(1.0)
        assert report["config"]["bleu"] == {
            "max_order": 4, "smooth": True, "per_sentence_smooth": True,
            "effective_order": True}

    def test_rouge_report_means_sentences(self):
        table = _metric_table([toks("a b c"), toks("a b c")],
                              [toks("a b d"), toks("a b c")], smooth=True)
        assert table["rouge2"] == pytest.approx((0.5 + 1.0) / 2)

    def test_table_is_the_metric_functions(self):
        hyps = [toks("a b c a"), toks("b"), []]
        refs = [toks("a b c d"), toks("b c"), toks("d")]
        for smooth in (False, True):
            assert _metric_table(hyps, refs, smooth) == {
                "bleu": bleu(hyps, refs, smooth=smooth),
                "rouge2": sum(rouge2(h, r) for h, r in zip(hyps, refs)) / 3,
                "distinct1": distinct_n(hyps, 1),
                "distinct2": distinct_n(hyps, 2),
                "len_ratio": 5 / 7}

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            _metric_table([], [], smooth=True)

    def test_ngram_counts_window(self):
        got = ngram_counts(["a", "b", "a", "b"], 2)
        assert got[("a", "b")] == 2 and got[("b", "a")] == 1
