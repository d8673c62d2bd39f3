"""The width-1 reference that batched log p(Y|X) scores are checked against."""

from fdq.data import BOS


def step_logprobs(model, src, tgt):
    """Per-step log p(y_t | X, y_{<t}) along a complete target, from one
    encode and one width-1 decode_step per token; sum() them in order for
    log p(Y|X)."""
    ctx, state = model.encode(src)
    out, prev = [], BOS
    for tok in tgt:
        logprobs, state = model.decode_step(state, prev, ctx)
        out.append(float(logprobs[tok]))
        prev = tok
    return out
