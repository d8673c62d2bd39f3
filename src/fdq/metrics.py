"""Corpus and sentence metrics: BLEU, ROUGE-2, distinct-n, exact-length rate.

All functions are pure and operate on token sequences (any hashable token
type).  Callers are expected to strip special tokens first; hypothesis and
reference lengths here mean content tokens only.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import ContractError


def ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references, max_order=4, smooth=False):
    """Corpus BLEU with clipped modified n-gram precision.

    Smoothing (for sentence-level use) adds one to numerator and
    denominator for orders >= 2; order 1 is never smoothed, so an empty
    overlap still zeroes the score.
    """
    if len(hypotheses) != len(references):
        raise ContractError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    clipped = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hcounts = ngram_counts(hyp, n)
            rcounts = ngram_counts(ref, n)
            clipped[n - 1] += sum(min(c, rcounts[g]) for g, c in hcounts.items())
            totals[n - 1] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    used = 0
    for n in range(1, max_order + 1):
        num, den = clipped[n - 1], totals[n - 1]
        if den == 0:
            # no n-grams of this order exist in any hypothesis: skip the
            # order entirely rather than zeroing the whole score
            continue
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        if num == 0:
            return 0.0
        log_sum += math.log(num / den)
        used += 1
    geo = math.exp(log_sum / used)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * geo


def sentence_bleu(hypothesis, reference):
    """Smoothed single-pair BLEU, used for rollout outcome labels."""
    return bleu([hypothesis], [reference], smooth=True)


def rouge2(hypothesis, reference):
    """Bigram-overlap F1."""
    hyp = ngram_counts(list(hypothesis), 2)
    ref = ngram_counts(list(reference), 2)
    hyp_total = sum(hyp.values())
    ref_total = sum(ref.values())
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    overlap = sum(min(c, ref[g]) for g, c in hyp.items())
    if overlap == 0:
        return 0.0
    p = overlap / hyp_total
    r = overlap / ref_total
    return p * r / (0.5 * p + 0.5 * r)


def distinct_n(responses, n):
    """Distinct n-grams across all responses over total token count.

    The denominator is the token count, not the n-gram count; the two
    differ for n >= 2 and short responses.
    """
    if n not in (1, 2):
        raise ContractError(f"distinct-n defined for n in {{1, 2}}, got {n}")
    seen = set()
    tokens = 0
    for resp in responses:
        resp = list(resp)
        tokens += len(resp)
        seen.update(tuple(resp[i:i + n]) for i in range(len(resp) - n + 1))
    if tokens == 0:
        return 0.0
    return len(seen) / tokens


def exact_length_rate(hypotheses, target_lengths):
    """Fraction of hypotheses whose content length equals the target."""
    if len(hypotheses) != len(target_lengths):
        raise ContractError(
            f"{len(hypotheses)} hypotheses vs {len(target_lengths)} targets")
    if not hypotheses:
        return 0.0
    hits = sum(1 for h, want in zip(hypotheses, target_lengths) if len(h) == want)
    return hits / len(hypotheses)
