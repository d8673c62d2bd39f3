"""Synthetic tasks, vocabularies, batching, NDJSON corpus files.

Token conventions used everywhere downstream:
- ids 0..3 are reserved for PAD, BOS, EOS, UNK;
- source sequences hold content ids only;
- target sequences hold content ids followed by exactly one EOS;
- a pair's length N counts content tokens, excluding that EOS.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, LoadError
from .seeding import substream

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

TASKS = ("copy", "reverse", "num2words", "dialogue")


class Vocab:
    """Bidirectional token/id map with the four reserved ids in front."""

    def __init__(self, tokens=()):
        self._tokens = list(RESERVED) + list(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise ContractError("duplicate tokens in vocabulary")

    @classmethod
    def from_counts(cls, counts):
        kept = [(tok, c) for tok, c in counts.items() if tok not in RESERVED]
        kept.sort(key=lambda item: (-item[1], item[0]))
        return cls(tok for tok, _ in kept)

    def __len__(self):
        return len(self._tokens)

    def encode(self, tokens):
        return [self._ids.get(t, UNK) for t in tokens]

    def decode(self, ids):
        return [self._tokens[i] for i in ids]

    def save(self, path):
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        lines = read_text(path).splitlines()
        if tuple(lines[:4]) != RESERVED:
            raise LoadError(f"{path}: reserved tokens missing or reordered")
        if len(set(lines)) != len(lines):
            raise LoadError(f"{path}: a token occurs twice")
        return cls(lines[4:])


@dataclass
class SequencePair:
    """One aligned (X, Y) pair; Y carries its terminating EOS."""

    src: list
    tgt: list

    @property
    def n(self):
        """Content length of the target, excluding EOS."""
        return len(self.tgt) - 1


@dataclass
class Corpus:
    pairs: list
    src_vocab: Vocab
    tgt_vocab: Vocab
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.pairs)

    def validate(self, where=""):
        for k, pair in enumerate(self.pairs):
            if not pair.tgt or pair.tgt[-1] != EOS:
                raise ContractError(f"{where}pair {k}: target must end with EOS")
            if any(not 0 <= t < len(self.src_vocab) for t in pair.src):
                raise ContractError(f"{where}pair {k}: source id out of range")
            if any(not 0 <= t < len(self.tgt_vocab) for t in pair.tgt):
                raise ContractError(f"{where}pair {k}: target id out of range")
        return self


@dataclass
class TaskSpec:
    task: str
    vocab: int = 12          # content alphabet size for copy/reverse
    min_len: int = 1
    max_len: int = 8
    pairs: int = 500
    seed: int = 0


# dialogue task construction: each source pairs one of n_templates question
# stems with a filler topic token; 40% of targets are one shared generic
# reply, the rest split evenly across 3 template-specific replies.  Generic
# replies dominate the forward distribution while specific replies pin down
# their source, which is the asymmetry mutual-information decoding exploits.
DIALOGUE_TEMPLATES = 20
DIALOGUE_FILLERS = 10
DIALOGUE_SPECIFICS = 3
GENERIC_PROB = 0.4
GENERIC_REPLY = ("i", "am", "not", "sure")


_ONES = ("zero", "one", "two", "three", "four", "five", "six", "seven",
         "eight", "nine")
_TEENS = ("ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
          "sixteen", "seventeen", "eighteen", "nineteen")
_TENS = ("", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
         "eighty", "ninety")


def number_words(n):
    """English word sequence for 0 <= n <= 9999."""
    if not 0 <= n <= 9999:
        raise ConfigError(f"number out of range: {n}")
    words = []
    if n >= 1000:
        words += [_ONES[n // 1000], "thousand"]
        n %= 1000
    if n >= 100:
        words += [_ONES[n // 100], "hundred"]
        n %= 100
    if n >= 20:
        words.append(_TENS[n // 10])
        if n % 10:
            words.append(_ONES[n % 10])
    elif n >= 10:
        words.append(_TEENS[n - 10])
    elif n > 0 or not words:
        words.append(_ONES[n])
    return words


def _validate_spec(spec):
    if spec.task not in TASKS:
        raise ConfigError(f"unknown task {spec.task!r}; expected one of {TASKS}")
    if spec.min_len > spec.max_len or spec.min_len < 1:
        raise ConfigError(f"bad length range [{spec.min_len}, {spec.max_len}]")
    if spec.pairs < 1:
        raise ConfigError(f"pair count must be >= 1, got {spec.pairs}")
    if spec.task in ("copy", "reverse") and spec.vocab < 1:
        raise ConfigError(f"alphabet size must be >= 1, got {spec.vocab}")


def _raw_pairs(spec):
    rng = substream(spec.seed, "data", spec.task)
    out = []
    if spec.task in ("copy", "reverse"):
        alphabet = [f"w{i:02d}" for i in range(spec.vocab)]
        for _ in range(spec.pairs):
            length = int(rng.integers(spec.min_len, spec.max_len + 1))
            xs = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length)]
            ys = xs[::-1] if spec.task == "reverse" else list(xs)
            out.append((xs, ys))
    elif spec.task == "num2words":
        for _ in range(spec.pairs):
            n = int(rng.integers(0, 10000))
            out.append((list(str(n)), number_words(n)))
    else:
        for _ in range(spec.pairs):
            template = int(rng.integers(0, DIALOGUE_TEMPLATES))
            filler = int(rng.integers(0, DIALOGUE_FILLERS))
            xs = [f"q{template}", "about", f"f{filler}"]
            if rng.random() < GENERIC_PROB:
                ys = list(GENERIC_REPLY)
            else:
                choice = int(rng.integers(0, DIALOGUE_SPECIFICS))
                ys = [f"topic{template}", f"detail{choice}", "here"]
            out.append((xs, ys))
    return out


def build_vocab(raw_pairs):
    """Source and target vocabularies from token-list pairs."""
    return (Vocab.from_counts(Counter(t for xs, _ in raw_pairs for t in xs)),
            Vocab.from_counts(Counter(t for _, ys in raw_pairs for t in ys)))


def encode_corpus(raw_pairs, src_vocab, tgt_vocab, provenance):
    pairs = [SequencePair(src_vocab.encode(xs), tgt_vocab.encode(ys) + [EOS])
             for xs, ys in raw_pairs]
    return Corpus(pairs, src_vocab, tgt_vocab, provenance).validate()


def gen_task(spec):
    """Generate a synthetic corpus; bit-identical for identical specs."""
    _validate_spec(spec)
    raw = _raw_pairs(spec)
    src_vocab, tgt_vocab = build_vocab(raw)
    provenance = {"task": spec.task, "seed": spec.seed, "pairs": spec.pairs,
                  "vocab": spec.vocab, "min_len": spec.min_len,
                  "max_len": spec.max_len}
    return encode_corpus(raw, src_vocab, tgt_vocab, provenance)


def split(corpus, fractions, seed):
    """Disjoint, exhaustive, seeded (train, dev, test) split."""
    fractions = tuple(fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions sum to {sum(fractions)!r}, not 1")
    order = substream(seed, "split").permutation(len(corpus.pairs))
    n_train = int(len(order) * fractions[0])
    n_dev = int(len(order) * fractions[1])
    parts = np.split(order, [n_train, n_train + n_dev])
    names = ("train", "dev", "test")
    empty = [name for idx, name in zip(parts, names) if not len(idx)]
    if empty:
        raise ConfigError(f"split fractions {fractions} of {len(order)} pairs "
                          f"leave {' and '.join(empty)} empty")
    return tuple(
        Corpus([corpus.pairs[i] for i in idx], corpus.src_vocab,
               corpus.tgt_vocab, dict(corpus.provenance, split=name))
        for idx, name in zip(parts, names))


@dataclass
class Batch:
    """Padded id arrays plus loss masks for one training step.

    tgt_in is BOS followed by the target without its EOS; tgt_out is the
    target including EOS; tgt_mask is 1 exactly where tgt_out is real.
    """

    src: np.ndarray
    src_mask: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_mask: np.ndarray

    def __len__(self):
        return self.src.shape[0]


def pad_ids(seqs):
    """PAD-filled [B,S] int64 ids of the id lists and their float32 mask."""
    lens = [len(seq) for seq in seqs]
    width = max(1, *lens)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    for r, seq in enumerate(seqs):
        ids[r, :lens[r]] = seq
    mask = (np.arange(width) < np.array(lens)[:, None]).astype(np.float32)
    return ids, mask


def make_batch(pairs):
    src, src_mask = pad_ids([p.src for p in pairs])
    tgt_out, tgt_mask = pad_ids([p.tgt for p in pairs])
    tgt_in = np.empty_like(tgt_out)
    tgt_in[:, 0] = BOS
    tgt_in[:, 1:] = tgt_out[:, :-1]
    tgt_in[tgt_mask == 0] = PAD
    return Batch(src, src_mask, tgt_in, tgt_out, tgt_mask)


def batch_iter(corpus, batch_size, seed=None):
    """Padded batches covering the corpus exactly once, in a fixed order."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    order = list(range(len(corpus.pairs)))
    if seed is not None:
        order = list(substream(seed, "batches").permutation(len(order)))
    for lo in range(0, len(order), batch_size):
        chunk = [corpus.pairs[i] for i in order[lo:lo + batch_size]]
        yield make_batch(chunk)


def read_text(path):
    """The text of the UTF-8 file at path; a LoadError if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text") from exc


def write_ndjson(path, records):
    """One compact JSON object per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def check_ids(seq, vocab, role):
    """ContractError unless seq is a non-empty list of ids below vocab."""
    if len(seq) == 0:
        raise ContractError(f"{role} sequence is empty")
    bad = [tok for tok in seq if not 0 <= tok < vocab]
    if bad:
        raise ContractError(f"{role} id {bad[0]} outside vocabulary "
                            f"of {vocab}")


def is_ids(value):
    """True for a list of int ids (bools are not ids)."""
    return isinstance(value, list) and all(type(t) is int for t in value)


def read_ndjson(path, required=(), kinds=(), exact=False):
    """The objects of a newline-delimited JSON file; blank lines skipped.

    A line that is not an object with every required field (and, if
    exact, no other), or whose field f fails check for (f, check) in
    kinds, raises LoadError at path:line.
    """
    records = []
    for n, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LoadError(f"{path}:{n}: malformed JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise LoadError(f"{path}:{n}: not a JSON object")
        missing = [k for k in required if k not in rec]
        if missing:
            raise LoadError(f"{path}:{n}: record lacks {missing}")
        if exact and len(rec) != len(required):
            raise LoadError(f"{path}:{n}: fields {sorted(rec)}, "
                            f"want {sorted(required)}")
        bad = [k for k, ok in kinds if k in rec and not ok(rec[k])]
        if bad:
            raise LoadError(f"{path}:{n}: wrong type for {bad}")
        records.append(rec)
    return records


def save_corpus(corpus, path):
    """Cache to newline-delimited JSON with vocab sidecar files."""
    path = Path(path)
    write_ndjson(path, ({"src": list(pair.src), "tgt": list(pair.tgt)}
                        for pair in corpus.pairs))
    corpus.src_vocab.save(path.with_suffix(path.suffix + ".src.vocab"))
    corpus.tgt_vocab.save(path.with_suffix(path.suffix + ".tgt.vocab"))


def load_corpus(path):
    path = Path(path)
    src_vocab = Vocab.load(path.with_suffix(path.suffix + ".src.vocab"))
    tgt_vocab = Vocab.load(path.with_suffix(path.suffix + ".tgt.vocab"))
    pairs = [SequencePair(rec["src"], rec["tgt"])
             for rec in read_ndjson(path, ("src", "tgt"),
                                    (("src", is_ids), ("tgt", is_ids)))]
    return Corpus(pairs, src_vocab, tgt_vocab,
                  {"cache": str(path)}).validate(f"{path}: ")
