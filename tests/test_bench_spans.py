"""The benchmark's layer spans still find every library site they wrap.

fdqbench/spans.py wraps (module, attribute) sites from outside and
raises KeyError when one is missing, so a refactor that drops or renames
a traced site fails here instead of only in a full benchmark run.
"""

import importlib.util
import math
from pathlib import Path

from fdq.data import TaskSpec, gen_task
from fdq.decode import DecodeConfig, decode_corpus
from fdq.seq2seq import Seq2Seq, TrainSchedule, train_mle
from fdq.value import train_length_q

SPANS = Path(__file__).resolve().parents[1] / "fdqbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("fdqbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restores_every_site():
    spans = load_spans()
    sites = [(owner, attr) for _, group, _ in spans._targets()
             for owner, attr in group]
    before = [vars(owner)[attr] for owner, attr in sites]
    with spans.install(spans.Tracer()):
        during = [vars(owner)[attr] for owner, attr in sites]
    after = [vars(owner)[attr] for owner, attr in sites]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_every_training_step_is_traced():
    spans = load_spans()
    corpus = gen_task(TaskSpec("copy", vocab=3, min_len=1, max_len=3,
                               pairs=10, seed=0))
    model = Seq2Seq(len(corpus.src_vocab), len(corpus.tgt_vocab), hidden=4,
                    max_len=5, seed=0)
    sched = TrainSchedule(epochs=2, batch_size=4, seed=0)
    tracer = spans.Tracer()
    with spans.install(tracer):
        train_mle(model, corpus, sched)
        train_length_q(model, corpus, sched)
    # two epochs each: batches of 4 over the 10 pairs for the model, and
    # over one row per content token for the length head
    rows = sum(p.n for p in corpus.pairs)
    steps = 2 * (math.ceil(10 / 4) + math.ceil(rows / 4))
    assert tracer.names.count("autodiff.backward") == steps
    assert tracer.names.count("optim.step") == steps


def test_rerank_scores_each_pair_in_one_traced_call():
    spans = load_spans()
    corpus = gen_task(TaskSpec("copy", vocab=3, min_len=1, max_len=3,
                               pairs=5, seed=0))
    vs, vt = len(corpus.src_vocab), len(corpus.tgt_vocab)
    forward = Seq2Seq(vs, vt, hidden=4, max_len=5, seed=0)
    backward = Seq2Seq(vt, vs, hidden=4, max_len=5, seed=1)
    tracer = spans.Tracer()
    with spans.install(tracer):
        records, _ = decode_corpus(forward, corpus,
                                   DecodeConfig(mode="mmi_rerank", beam=3),
                                   backward=backward)
    assert all("error" not in rec for rec in records)
    scored = [tracer.names[tracer.parents[i]]
              for i, name in enumerate(tracer.names)
              if name == "seq2seq.batch_logprobs"]
    assert scored == ["decode.rerank"] * len(corpus.pairs)
