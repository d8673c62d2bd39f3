"""Run one workload: set-up probes, timed passes, checks, the result line.

An untraced run makes one pass of the whole pipeline, decodes the rest
of the quality pairs with the headline guided mode, and repeats the pass
while another one still fits in `seconds`.  Every pass decodes the same
pairs, so each phase time and each pair's latency is reported as its
mean over the passes.  A shared host flips between a fast and a 1.67x
slower state many times a second, and the share of time it spends slow
drifts over minutes; a mean over the whole run follows that share
smoothly, where the best of a few passes jumps with whether any pass
caught the fast state.  Every pass must reproduce the first one's
outputs and checkpoint bytes.  A traced
run makes one untraced pass and one traced pass and reports the layer
metrics of the traced pass; the difference between the two passes'
phase times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from fdq.data import BOS

import spans
from workloads import (HEADLINE, WORKLOADS, Rep, Store, corpora,
                       guided_label, head, quality)

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PHASES = ("train", "train_q", "decode")
SETUP_PROBES = 2  # per phase boundary: 8 a run
ADVANCE_PROBES = 40
CHECK_PAIRS = 50  # leading dev pairs the weight-0 check decodes


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_config()
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": out.getvalue(),
    }


class SetupProbe:
    """Wall times of fresh processes doing everything before training.

    The probes are spread over the run, a few before each phase, because
    the host's speed drifts over seconds.
    """

    def __init__(self, workload, seed, tiny):
        self.cmd = [sys.executable, str(RUN), "--setup-probe", "--workload",
                    workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.per_call = 1 if tiny else SETUP_PROBES
        self.times = []

    def __call__(self):
        for _ in range(self.per_call):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL,
                           timeout=120)
            self.times.append(time.perf_counter() - t0)


def one_pass(workload, sizes, train, dev, store, tracer, before_phase=None):
    rep = Rep(train, dev, store, tracer, before_phase)
    workload.run(rep, sizes)
    return rep


def checks_after_first(workload, rep, store):
    """The run's correctness checks; each is one attempted operation."""
    dev = head(rep.dev, CHECK_PAIRS)
    zero = workload.guided(rep, dev, 0.0)
    checks = {"weight_zero_reproduces_sbs":
              None not in zero and zero == rep.outputs["sbs"][:len(zero)]}
    for name in store.kinds:
        checks[f"checkpoint_resave_identical.{name}"] = store.resave_matches(name)
    return checks


def advance_probes(model, src, beam):
    """Median microseconds of one Seq2Seq.advance at 1, B, V and B*V rows."""
    ctx, state = model.encode(src)
    _, state = model.decode_step(state, BOS, ctx)
    vocab = model.tgt_vocab
    out = {}
    for key, rows in (("w1", 1), ("wB", beam), ("wV", vocab),
                      ("wBV", beam * vocab)):
        ids = np.arange(rows) % vocab
        times = []
        for _ in range(ADVANCE_PROBES):
            t0 = time.perf_counter()
            model.advance(state, ctx, ids)
            times.append((time.perf_counter() - t0) * 1e6)
        out[f"seq2seq.probe_{key}.us"] = statistics.median(times)
    return out


def scored_quality(workload, first, pool):
    """Quality of the headline guided output on every pair of the pool.

    The first pass already decoded the leading pairs; the rest are
    decoded here, once.
    """
    done = first.outputs[guided_label(workload.mode, HEADLINE)]
    rest = dataclasses.replace(pool, pairs=pool.pairs[len(done):])
    hyps = done + workload.guided(first, rest, HEADLINE)
    return quality(hyps, pool, workload.lengths(pool)), hyps.count(None)


def pair_mean(times):
    """A pair's mean time over the passes; None if it failed."""
    return None if None in times else statistics.fmean(times)


def end_to_end(reps, setup_s, scored):
    """Phase means over passes; percentiles of per-pair mean latencies."""
    values = {"setup_s": setup_s}
    for phase in PHASES:
        values[f"{phase}_s"] = statistics.fmean(rep.phases[phase]
                                                for rep in reps)
    samples = {"passes": len(reps)}
    for arm in ("sbs", "guided"):
        ms = [t for t in map(pair_mean, zip(*(rep.ms[arm] for rep in reps)))
              if t is not None]
        for q in (50, 90):
            values[f"{arm}_ms_p{q}"] = float(np.percentile(ms, q))
        samples[f"{arm}_pairs"] = len(ms)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values.update(scored)
    return values, samples


def per_layer(tracer, traced, untraced, store_bytes, probes):
    values = spans.layer_metrics(tracer)
    values["autodiff.tensors_per_pair"] = (traced.decode_tensors / traced.pairs
                                           if traced.pairs else 0.0)
    values["checkpoint.bytes"] = store_bytes
    for phase in PHASES:
        values[f"trace.overhead_{phase}_s"] = (traced.phases[phase]
                                               - untraced.phases[phase])
    values.update(probes)
    return values


def run(workload_name, seed, seconds, traced, tiny=False):
    """Returns (result dict for the last line, info dict)."""
    workload = WORKLOADS[workload_name]
    sizes = workload.tiny if tiny else workload.sizes
    scratch = ROOT / ".fdqbench" / f"{workload_name}-{seed}-{os.getpid()}"
    probe = None if traced else SetupProbe(workload_name, seed, tiny)
    train, pool = corpora(workload, seed, sizes)
    dev = head(pool, sizes.dev)
    store = Store(scratch / "checkpoints")
    try:
        t_start = time.perf_counter()
        first = one_pass(workload, sizes, train, dev, store,
                         spans.NullTracer(), probe)
        digests = {name: store.digest(name) for name in store.kinds}
        checks = checks_after_first(workload, first, store)
        reps = [first]
        if traced:
            tracer = spans.Tracer()
            store.bytes = 0
            with spans.install(tracer):
                again, again_pool = corpora(workload, seed, sizes)
                rep = one_pass(workload, sizes, again,
                               head(again_pool, sizes.dev), store, tracer)
            checks["traced_pass_decodes_same_tokens"] = (
                rep.outputs == first.outputs)
            reps.append(rep)
            probes = advance_probes(first.models["forward"], dev.pairs[0].src,
                                    workload.beam)
            values = per_layer(tracer, rep, first, store.bytes, probes)
            samples = {"spans": len(tracer)}
            tracer.write(ROOT / ".fdqbench"
                         / f"trace-{workload_name}-{seed}.ndjson")
        else:
            scored, failed_pairs = scored_quality(workload, first, pool)
            # another pass starts only if it ends within `seconds`, were it
            # as long as the longest so far
            while (time.perf_counter() - t_start
                   + max(sum(r.phases.values()) for r in reps) <= seconds):
                rep = one_pass(workload, sizes, train, dev, store,
                               spans.NullTracer())
                same = (rep.outputs == first.outputs and digests == {
                    name: store.digest(name) for name in store.kinds})
                checks[f"pass_{len(reps) + 1}_reproduces_pass_1"] = same
                reps.append(rep)
            probe()
            values, samples = end_to_end(reps, statistics.median(probe.times),
                                         scored)
            checks["quality_pairs_decoded"] = failed_pairs == 0
            samples["setup_probes"] = len(probe.times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(rep.pairs for rep in reps) + len(checks)
    failed = (sum(rep.errors for rep in reps)
              + sum(1 for ok in checks.values() if not ok))
    kind = "per_layer" if traced else "end_to_end"
    declared = spec()[kind]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    info = {
        "workload": workload_name, "seed": seed, "trace": int(traced),
        "sizes": dataclasses.asdict(sizes), "samples": samples, "checks": checks,
        "phases": [rep.phases for rep in reps],
        "outputs_sha256": hashlib.sha256(json.dumps(
            first.outputs, sort_keys=True).encode("utf-8")).hexdigest(),
        "unreported": {k: v for k, v in values.items()
                       if k not in {m["name"] for m in declared}},
        "env": environment(),
    }
    return result, info
