"""Corpus generation, vocab, loading, splitting, batching."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq import data as d
from fdq.data import (BOS, EOS, PAD, UNK, Corpus, SequencePair, TaskSpec,
                      Vocab, batch_iter, build_vocab, gen_task, load_corpus,
                      number_words, save_corpus, split)
from fdq.errors import ConfigError, LoadError


def corpus_fingerprint(c):
    return [(tuple(p.src), tuple(p.tgt)) for p in c.pairs]


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["hello"])
        assert v.encode(["<pad>"])[0] == PAD and v.encode(["<bos>"])[0] == BOS
        assert v.encode(["<eos>"])[0] == EOS and v.encode(["<unk>"])[0] == UNK
        assert v.encode(["hello"])[0] == 4

    def test_tie_breaks_lexicographically(self):
        v = Vocab.from_counts(Counter({"zebra": 2, "apple": 2, "mango": 3}))
        assert v.encode(["mango"])[0] == 4
        assert v.encode(["apple"])[0] == 5
        assert v.encode(["zebra"])[0] == 6

    def test_round_trip_identity(self):
        v = Vocab.from_counts(Counter({"a": 1, "b": 1}))
        toks = ["a", "b", "a"]
        assert v.decode(v.encode(toks)) == toks

    def test_save_load(self, tmp_path):
        v = Vocab.from_counts(Counter({"x": 3, "été": 1}))
        p = tmp_path / "v.vocab"
        v.save(p)
        w = Vocab.load(p)
        assert len(w) == len(v)
        assert w.encode(["été"])[0] == v.encode(["été"])[0]

    def test_load_rejects_missing_reserved(self, tmp_path):
        p = tmp_path / "bad.vocab"
        p.write_text("a\nb\n")
        with pytest.raises(LoadError):
            Vocab.load(p)


class TestGenTask:
    def test_copy_is_identity(self):
        c = gen_task(TaskSpec("copy", vocab=6, min_len=3, max_len=3, pairs=5, seed=1))
        for pair in c.pairs:
            assert pair.tgt[:-1] == pair.src
            assert pair.tgt[-1] == EOS

    def test_reverse_reverses(self):
        c = gen_task(TaskSpec("reverse", vocab=6, min_len=2, max_len=5, pairs=5, seed=1))
        for pair in c.pairs:
            assert pair.tgt[:-1] == pair.src[::-1]

    def test_num2words_maps_digits(self):
        c = gen_task(TaskSpec("num2words", pairs=30, seed=4))
        for pair in c.pairs:
            digits = "".join(c.src_vocab.decode(pair.src))
            words = c.tgt_vocab.decode(pair.tgt[:-1])
            assert words == number_words(int(digits))

    def test_rerun_bit_identical(self):
        spec = TaskSpec("dialogue", pairs=40, seed=9)
        assert corpus_fingerprint(gen_task(spec)) == corpus_fingerprint(gen_task(spec))

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            gen_task(TaskSpec("sort"))

    def test_bad_length_range_rejected(self):
        with pytest.raises(ConfigError):
            gen_task(TaskSpec("copy", min_len=5, max_len=2))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_seeds_give_valid_corpora(self, seed):
        c = gen_task(TaskSpec("copy", vocab=5, min_len=1, max_len=4, pairs=8, seed=seed))
        c.validate()
        assert len(c) == 8


class TestNumberWords:
    def test_hand_cases(self):
        assert number_words(0) == ["zero"]
        assert number_words(10) == ["ten"]
        assert number_words(21) == ["twenty", "one"]
        assert number_words(100) == ["one", "hundred"]
        assert number_words(1005) == ["one", "thousand", "five"]
        assert number_words(9999) == ["nine", "thousand", "nine", "hundred",
                                      "ninety", "nine"]

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            number_words(10000)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 9999))
    def test_total_and_zero_rules(self, n):
        words = number_words(n)
        assert 1 <= len(words) <= 7
        assert ("zero" in words) == (n == 0)


class TestDialogueCalibration:
    def test_forward_mass_favors_generic_backward_favors_specific(self):
        c = gen_task(TaskSpec("dialogue", pairs=4000, seed=3))
        generic = tuple(c.tgt_vocab.encode(d.GENERIC_REPLY)) + (EOS,)
        by_src = {}
        by_tgt = {}
        for p in c.pairs:
            by_src.setdefault(tuple(p.src), Counter())[tuple(p.tgt)] += 1
            by_tgt.setdefault(tuple(p.tgt), Counter())[tuple(p.src)] += 1
        for src, targets in by_src.items():
            n = sum(targets.values())
            if n < 30:
                continue
            for tgt, count in targets.items():
                if tgt != generic:
                    assert targets[generic] > count
        # specific replies identify their template; the generic reply is
        # spread over many sources
        generic_sources = len(by_tgt[generic])
        assert generic_sources > 20
        for tgt, sources in by_tgt.items():
            if tgt == generic:
                continue
            templates = {c.src_vocab.decode([src[0]])[0] for src in sources}
            assert len(templates) == 1


class TestSplit:
    def make(self, n):
        pairs = [SequencePair([4], [4, EOS]) for _ in range(n)]
        v = Vocab(["a"])
        return Corpus(pairs, v, v)

    def test_sizes(self):
        tr, dev, te = split(self.make(100), (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(dev), len(te)) == (80, 10, 10)

    def test_union_is_corpus(self):
        c = gen_task(TaskSpec("copy", vocab=5, pairs=50, seed=2))
        tr, dev, te = split(c, (0.6, 0.2, 0.2), seed=5)
        got = sorted(corpus_fingerprint(tr) + corpus_fingerprint(dev)
                     + corpus_fingerprint(te))
        assert got == sorted(corpus_fingerprint(c))

    def test_same_seed_same_split(self):
        c = gen_task(TaskSpec("copy", vocab=5, pairs=30, seed=2))
        a = split(c, (0.5, 0.25, 0.25), seed=7)
        b = split(c, (0.5, 0.25, 0.25), seed=7)
        assert [corpus_fingerprint(x) for x in a] == [corpus_fingerprint(x) for x in b]

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            split(self.make(10), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ConfigError):
            split(self.make(10), (1.0, -0.5, 0.5), seed=0)
        # 3 pairs at 25% leave no dev pair
        with pytest.raises(ConfigError, match=r"\(0.5, 0.25, 0.25\) of 3 "
                           "pairs leave dev empty"):
            split(self.make(3), (0.5, 0.25, 0.25), seed=0)


class TestBatches:
    def test_single_batch_when_large(self):
        c = gen_task(TaskSpec("copy", vocab=5, pairs=7, seed=0))
        batches = list(batch_iter(c, 100))
        assert len(batches) == 1 and len(batches[0]) == 7

    def test_counts_preserved(self):
        c = gen_task(TaskSpec("copy", vocab=5, pairs=23, seed=0))
        batches = list(batch_iter(c, 4, seed=1))
        assert sum(len(b) for b in batches) == 23

    def test_mask_counts_real_tokens_only(self):
        c = gen_task(TaskSpec("copy", vocab=5, min_len=1, max_len=6, pairs=9, seed=3))
        want = sum(len(p.tgt) for p in c.pairs)
        got = sum(float(b.tgt_mask.sum()) for b in batch_iter(c, 4))
        assert got == want

    def test_padding_layout(self):
        v = Vocab(["a", "b"])
        pairs = [SequencePair([4, 5], [4, EOS]), SequencePair([5], [5, 4, EOS])]
        b = d.make_batch(pairs)
        assert b.src[1, 1] == PAD and b.src_mask[1, 1] == 0.0
        assert list(b.tgt_in[0]) == [BOS, 4, PAD]
        assert list(b.tgt_out[0]) == [4, EOS, PAD]
        assert list(b.tgt_mask[0]) == [1.0, 1.0, 0.0]
        assert list(b.tgt_in[1]) == [BOS, 5, 4]
        assert b.src.dtype == b.tgt_in.dtype == b.tgt_out.dtype == np.int64
        assert b.src_mask.dtype == b.tgt_mask.dtype == np.float32


class TestCacheRoundTrip:
    def test_bit_identical(self, tmp_path):
        c = gen_task(TaskSpec("dialogue", pairs=25, seed=6))
        path = tmp_path / "corpus.ndjson"
        save_corpus(c, path)
        back = load_corpus(path)
        assert corpus_fingerprint(back) == corpus_fingerprint(c)
        assert len(back.src_vocab) == len(c.src_vocab)
        assert back.tgt_vocab.decode(back.pairs[0].tgt) == c.tgt_vocab.decode(c.pairs[0].tgt)

    @pytest.mark.parametrize("line, why", [
        ('{"src": [4], "tgt": [4, 2]', "malformed JSON"),
        ("[4, 2]", "not a JSON object"),
        ('{"tgt": [4, 2]}', "lacks ['src']"),
        ('{"src": [4.0], "tgt": [4, 2]}', "wrong type for ['src']")])
    def test_bad_line_named_by_path_and_number(self, tmp_path, line, why):
        c = gen_task(TaskSpec("copy", vocab=3, pairs=2, seed=6))
        path = tmp_path / "corpus.ndjson"
        save_corpus(c, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        path.write_text(f"{first}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(LoadError, match=f"{path.name}:3: ") as err:
            load_corpus(path)
        assert why in str(err.value)
