"""Layer spans for the traced benchmark run.

The library is not instrumented.  Instead `install` wraps the public
functions of each `fdq` module from outside, at every name a caller
looks the function up by (``fdq.value.batch_logprobs`` as well as
``fdq.seq2seq.batch_logprobs``), so a call records a span whichever
module makes it.  Spans live in memory with a parent link and are
written out once, when the run ends; self times are derived from them
afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns

import fdq
from fdq import autodiff, checkpoint, data, decode, optim, seq2seq, value


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    tensors = 0

    def span(self, name, count=0):
        return contextlib.nullcontext()


class Tracer:
    """Spans as parallel lists: name, parent index, start/end ns, count.

    `count` is a per-call work measure taken from the arguments (rows
    advanced, sequences scored, tape nodes); `tensors` counts `Tensor`
    constructions while the tracer is installed.
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = []
        self.tensors = 0
        self._stack = []

    def __len__(self):
        return len(self.names)

    def _open(self, name, count):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(count)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, count=0):
        idx = self._open(name, count)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def write(self, path):
        """One JSON array per span: index, parent, name, start, duration, count."""
        t_zero = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([
                    i, self.parents[i], name, (self.starts[i] - t_zero) // 1000,
                    (self.ends[i] - self.starts[i]) // 1000, self.counts[i]]) + "\n")


def _rows(model, state, ctx, token_ids):
    return len(token_ids)


def _seqs_and_tokens(model, pairs):
    # the sources are what the encoder re-reads: for the partial-backward
    # scorer they are the hypothesis prefixes
    return (len(pairs), sum(len(p.src) for p in pairs))


def _tape_nodes(tape, loss):
    return len(tape.nodes)


def _targets():
    """(span name, [(owner, attribute), ...], count fn) for every wrapped call."""
    scorers = (decode.LengthScorer, value.PartialBackwardScorer)
    train_fns = ("train_backward_model", "train_backward_q_option2",
                 "train_length_q")
    return [
        ("seq2seq.encode", [(seq2seq.Seq2Seq, "_encode_graph")], None),
        ("seq2seq.step_w1", [(seq2seq.Seq2Seq, "decode_step")], None),
        ("seq2seq.advance", [(seq2seq.Seq2Seq, "advance")], _rows),
        ("seq2seq.batch_logprobs",
         [(seq2seq, "batch_logprobs"), (value, "batch_logprobs")],
         _seqs_and_tokens),
        ("train.mle", [(seq2seq, "train_mle"), (value, "train_mle")], None),
        *((f"train.{fn}", [(value, fn)], None) for fn in train_fns),
        *(("value.score", [(cls, "score_candidates")], None) for cls in scorers),
        ("decode.search", [(decode, "beam_search")], None),
        ("decode.search", [(decode, "guided_beam_search")], None),
        ("decode.search", [(decode, "length_forced_select")], None),
        ("decode.rerank", [(decode, "rescore_nbest")], None),
        ("autodiff.backward",
         [(autodiff, "backward"), (seq2seq, "backward"), (value, "backward"),
          (fdq, "backward")], _tape_nodes),
        ("optim.step",
         [(optim, "optimizer_step"), (seq2seq, "optimizer_step"),
          (value, "optimizer_step"), (fdq, "optimizer_step")], None),
        ("checkpoint.save",
         [(checkpoint, "save_tensors"), (seq2seq, "save_tensors"),
          (value, "save_tensors")], None),
        ("checkpoint.load",
         [(checkpoint, "load_tensors"), (seq2seq, "load_tensors"),
          (value, "load_tensors")], None),
        ("data.make_batch", [(data, "make_batch"), (seq2seq, "make_batch")],
         None),
        ("data.gen", [(data, "gen_task")], None),
        ("data.gen", [(data, "split")], None),
    ]


@contextlib.contextmanager
def install(tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for name, sites, count in _targets():
            owner, attr = sites[0]
            original = vars(owner)[attr]
            traced = tracer.wrap(name, original, count)
            for owner, attr in sites:
                if vars(owner)[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"function the other sites share")
                saved.append((owner, attr, original))
                setattr(owner, attr, traced)
        tensor_init = vars(autodiff.Tensor)["__init__"]

        def counting_init(self, data, dtype=None):
            tracer.tensors += 1
            tensor_init(self, data, dtype)

        saved.append((autodiff.Tensor, "__init__", tensor_init))
        autodiff.Tensor.__init__ = counting_init
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# reported fields per span name; each is one column of the accumulator
REPORTED = {
    "seq2seq.encode": ("calls", "us"),
    "seq2seq.step_w1": ("calls", "us"),
    "seq2seq.advance": ("calls", "us", "rows"),
    "seq2seq.batch_logprobs": ("calls", "us", "seqs"),
    "value.score": ("calls", "us", "self_us"),
    "decode.search": ("calls", "us", "self_us"),
    "decode.rerank": ("us",),
    "autodiff.backward": ("calls", "us", "nodes"),
    "optim.step": ("calls", "us"),
    "checkpoint.save": ("us",),
    "checkpoint.load": ("us",),
    "metrics.eval": ("us",),
    "data.gen": ("us",),
    "data.make_batch": ("calls", "us"),
}
COLUMN = {"calls": 0, "us": 1, "self_us": 2, "rows": 3, "seqs": 3, "nodes": 3}


def layer_metrics(tracer):
    """Per-layer counts and microsecond totals derived from the spans.

    Seq2seq and decode spans under a training call are training work and
    are left out, so those metrics describe decoding.  A span's self time
    is its duration minus its direct children's, which cover disjoint
    parts of it.
    """
    n = len(tracer)
    names, parents, counts = tracer.names, tracer.parents, tracer.counts
    dur = [(tracer.ends[i] - tracer.starts[i]) / 1000.0 for i in range(n)]
    child = [0.0] * n
    in_train = [False] * n
    in_search = [False] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
            in_train[i] = in_train[p] or names[p].startswith("train.")
            in_search[i] = in_search[p] or names[p] == "decode.search"

    acc = {}    # name -> [calls, us, self_us, count]
    tokens = 0  # prefix tokens re-encoded by batch_logprobs
    train_us = 0.0
    search_steps = 0
    search_rows = 0
    for i in range(n):
        name = names[i]
        if name.startswith("train.") and not in_train[i]:
            train_us += dur[i]
        if in_train[i] and name.startswith(("seq2seq.", "decode.")):
            continue
        parent = names[parents[i]] if parents[i] >= 0 else ""
        if name == "seq2seq.advance" and parent == "seq2seq.step_w1":
            continue  # the width-1 step's own row, already in step_w1
        count = counts[i]
        if name == "seq2seq.batch_logprobs":
            count, seq_tokens = count
            tokens += seq_tokens
        row = acc.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - child[i]
        row[3] += count
        if in_search[i] and name == "seq2seq.step_w1":
            search_steps += 1
        if in_search[i] and name == "seq2seq.advance":
            search_rows += count

    def total(name, field):
        return acc.get(name, [0, 0.0, 0.0, 0])[COLUMN[field]]

    out = {f"{name}.{field}": total(name, field)
           for name, fields in REPORTED.items() for field in fields}
    out["seq2seq.batch_logprobs.tokens"] = tokens
    out["decode.kept_per_speculative"] = (
        search_steps / search_rows if search_rows else 0.0)
    out["train.graph_self_us"] = (train_us - total("autodiff.backward", "us")
                                  - total("optim.step", "us"))
    out["trace.spans"] = n
    return out
