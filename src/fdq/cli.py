"""Command-line driver: train, train-q, decode, eval, compare.

One entry point ties the library together.  Every command reads one JSON
config (plus ``--set`` overrides), derives all randomness from the global
seed through named substreams, and writes a run manifest next to its
artifacts.  Exit codes: 0 success, 2 user or config error, 3 numeric
failure.
"""

import argparse
import dataclasses
import hashlib
import math
import sys
from functools import partial
from pathlib import Path

from .config import (Q_FAMILIES, RunManifest, apply_overrides, config_hash,
                     default_config, load_config, timed, validate_config,
                     write_json)
from .data import (TaskSpec, Vocab, gen_task, load_corpus, read_ndjson,
                   save_corpus, split, write_ndjson)
from .decode import DecodeConfig, RegressorScorer, decode_corpus
from .errors import ConfigError, FdqError, LoadError, TrainingDivergenceError
from .metrics import bleu, distinct_n, rouge2
from .seeding import stream_key
from .seq2seq import Seq2Seq, TrainSchedule, dataset_ce, train_mle
from .value import (BackwardRegressor, LengthRegressor, OutcomePredictor,
                    OutcomeScorer, PartialBackwardEnsemble,
                    PartialBackwardScorer, RolloutConfig, generate_rollouts,
                    load_rollouts, save_rollouts, swap_corpus,
                    train_backward_model, train_backward_q_option1,
                    train_backward_q_option2, train_length_q, train_outcome_q)

FORWARD = "forward.fdq"
BACKWARD = "backward.fdq"
ROLLOUTS = "rollouts.ndjson"
Q_FILE = "q_{}.fdq"
VOCABS = ["dev.json.src.vocab", "dev.json.tgt.vocab"]


def _seed(config, *names):
    return stream_key(config["seed"], *names) % (2 ** 32)


def _require(path, hint):
    if not Path(path).exists():
        raise ConfigError(f"missing {path}; {hint}")
    return path


def load_task(config):
    """Regenerate the task corpus and its split from the global seed."""
    t = config["task"]
    corpus = gen_task(TaskSpec(t["name"], vocab=t["vocab"],
                               min_len=t["min_len"], max_len=t["max_len"],
                               pairs=t["pairs"], seed=_seed(config, "data")))
    return split(corpus, config["split"], seed=_seed(config, "split"))


def _load_forward(out):
    return Seq2Seq.load(_require(out / FORWARD, "run `fdq train` first"))


def _check_vocab(model, corpus, out):
    """The corpus must use the vocabularies `fdq train` saved by dev.json."""
    want = (len(corpus.src_vocab), len(corpus.tgt_vocab))
    got = (model.src_vocab, model.tgt_vocab)
    if got != want:
        raise ConfigError(
            f"checkpoint vocab sizes {got} do not match task vocab {want}; "
            f"the checkpoint was trained under a different config")
    for side, vocab in (("src", corpus.src_vocab), ("tgt", corpus.tgt_vocab)):
        path = _require(out / f"dev.json.{side}.vocab", "run `fdq train` first")
        saved = Vocab.load(path)
        if saved.decode(range(len(saved))) != vocab.decode(range(len(vocab))):
            raise ConfigError(f"{path} differs from the task's {side} vocab;"
                              f" {FORWARD} was trained on another task or seed")


def _made_from(config, name):
    """({label: config value}, [files in --out]) the derived file name is
    made from; its key binds each value under the last part of its label
    and each file's sha256 under the file's stem."""
    run = {"task": config["task"], "split": config["split"],
           "seed": config["seed"]}
    if name == BACKWARD:
        return run, VOCABS
    if name == ROLLOUTS:
        return {**run, "q.rollout": config["q"]["rollout"]}, [FORWARD]
    # a Q file is fit to the models its family reads
    if name == Q_FILE.format("backward_opt1"):
        return {}, [FORWARD, BACKWARD]
    return {}, [FORWARD]


def _key(config, out, name):
    """The key binding out/name to what _made_from says it is made from."""
    fields, files = _made_from(config, name)
    return config_hash({
        **{label.split(".")[-1]: value for label, value in fields.items()},
        **{Path(f).stem: hashlib.sha256((out / f).read_bytes()).hexdigest()
           for f in files}})


def _write_key(config, out, name):
    (out / f"{name}.key").write_text(_key(config, out, name), encoding="utf-8")


def _check_key(config, out, name, hint):
    """Raise ConfigError unless the key file of out/name holds its key:
    name was made from what _made_from names, as it is now."""
    kpath = out / f"{name}.key"
    if (kpath.exists()
            and kpath.read_text(encoding="utf-8") == _key(config, out, name)):
        return
    fields, files = _made_from(config, name)
    *rest, last = [*fields, *files]
    made_from = f"{', '.join(rest)} and {last}" if rest else last
    raise ConfigError(f"{out / name} was not made from this {made_from} "
                      f"({kpath} differs or is missing); {hint}")


def _load_backward(config, out):
    """backward.fdq, if `fdq train` made it for this task, split and seed."""
    hint = ("train with q.family=backward_opt1 or decode.mode=mmi_rerank "
            "to produce a backward model")
    path = _require(out / BACKWARD, hint)
    _check_key(config, out, BACKWARD, hint)
    return Seq2Seq.load(path)


def _print_epoch(record):
    # cmd_train always trains with a dev set
    print(f"epoch={record['epoch']} train_ce={record['train_ce']:.4f} "
          f"dev_ce={record['dev_ce']:.4f}")


def _from_section(cls, section, **given):
    """A cls dataclass from the section keys that name its fields, plus given."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{k: v for k, v in section.items() if k in names}, **given})


def _needs_backward(config):
    # any backward-family experiment gets the exact backward model, so
    # the mmi_rerank baseline in `compare` works without extra steps
    return (config["q"]["family"] in ("backward_opt1", "backward_opt2")
            or config["decode"]["mode"] == "mmi_rerank")


# -- commands -------------------------------------------------------------------


def cmd_train(config, out, manifest):
    train, dev, _ = load_task(config)
    m = config["model"]
    model = Seq2Seq(len(train.src_vocab), len(train.tgt_vocab),
                    hidden=m["hidden"], attention=m["attention"],
                    max_len=m["max_len"], seed=_seed(config, "train"))
    sched = _from_section(TrainSchedule, config["train"],
                          seed=_seed(config, "train"))
    with timed(manifest, "train"):
        train_mle(model, train, sched, dev=dev, log=_print_epoch)
    ppl = math.exp(dataset_ce(model, dev))
    print(f"dev_ppl={ppl:.4f}")
    manifest.metrics["dev_ppl"] = ppl
    model.save(out / FORWARD)
    manifest.artifacts["forward"] = str(out / FORWARD)
    save_corpus(dev, out / "dev.json")
    manifest.artifacts["dev_corpus"] = str(out / "dev.json")
    if _needs_backward(config):
        b = config["q"]["backward"]
        bsched = _from_section(TrainSchedule, b,
                               seed=_seed(config, "train", "backward"))
        with timed(manifest, "train_backward"):
            backward = train_backward_model(train, bsched, hidden=b["hidden"],
                                            attention=m["attention"],
                                            max_len=m["max_len"])
        ce = dataset_ce(backward, swap_corpus(dev))
        print(f"backward_dev_ce={ce:.4f}")
        manifest.metrics["backward_dev_ce"] = ce
        backward.save(out / BACKWARD)
        # the key covers the vocabulary sidecars save_corpus wrote
        _write_key(config, out, BACKWARD)
        manifest.artifacts["backward"] = str(out / BACKWARD)
    write_json(out / "config.json", config)
    manifest.artifacts["config"] = str(out / "config.json")
    print(f"config_hash={manifest.config_hash}")
    return 0


def _rollouts(config, out, model, train, manifest):
    """Rollout records, generated or else reused from out if its key holds."""
    rc = config["q"]["rollout"]
    rpath = out / ROLLOUTS
    manifest.artifacts["rollouts"] = str(rpath)
    if rpath.exists():
        _check_key(config, out, ROLLOUTS, "delete it to generate new rollouts")
        records = load_rollouts(rpath)
        print(f"rollouts={len(records)} (loaded)")
        return records
    source = dataclasses.replace(train, pairs=train.pairs[:rc["pairs"]])
    rcfg = _from_section(RolloutConfig, rc, seed=_seed(config, "rollout"))
    with timed(manifest, "rollouts"):
        records = generate_rollouts(model, source, rcfg)
    save_rollouts(rpath, records)
    _write_key(config, out, ROLLOUTS)
    print(f"rollouts={len(records)} (generated)")
    return records


def cmd_train_q(config, out, manifest):
    model = _load_forward(out)
    train, dev, _ = load_task(config)
    _check_vocab(model, train, out)
    q = config["q"]
    family = q["family"]
    sched = _from_section(TrainSchedule, q, seed=_seed(config, "q"))
    # the inputs load first, so train_q times the fit alone
    if family == "length":
        fit = partial(train_length_q, model, train, sched, dev=dev)
    elif family == "backward_opt1":
        fit = partial(train_backward_q_option1, model,
                      _load_backward(config, out), train, sched, dev=dev)
    elif family == "backward_opt2":
        fit = partial(train_backward_q_option2, train, sched,
                      buckets=q["buckets"], hidden=q["hidden"],
                      attention=config["model"]["attention"],
                      max_len=config["model"]["max_len"])
    else:
        records = _rollouts(config, out, model, train, manifest)
        cut = max(1, int(0.9 * len(records)))
        fit = partial(train_outcome_q, records[:cut], sched,
                      len(train.src_vocab), len(train.tgt_vocab),
                      hidden=q["hidden"], dev=records[cut:] or None)
    with timed(manifest, "train_q"):
        q_model = fit()
    if family == "backward_opt2":
        counts = sorted(q_model.example_counts.items())
        for i, count in counts:
            print(f"bucket_{i} examples={count}")
        manifest.metrics["bucket_examples"] = {str(i): c for i, c in counts}
    report = getattr(q_model, "dev_report", None)
    if report:
        print(f"mse={report['mse']:.4f} baseline_mse={report['baseline_mse']:.4f}")
        manifest.metrics.update(report)
    path = out / Q_FILE.format(family)
    q_model.save(path)
    _write_key(config, out, path.name)
    manifest.artifacts["q"] = str(path)
    print(f"config_hash={manifest.config_hash}")
    return 0


def _load_q(config, out, family, cls):
    path = _require(out / Q_FILE.format(family),
                    f"run `fdq train-q` with q.family={family}")
    _check_key(config, out, path.name,
               f"rerun `fdq train-q` with q.family={family}")
    return cls.load(path)


def _build_scorer(config, out, mode):
    """Per-mode (scorer_factory, backward) from on-disk checkpoints."""
    family = config["q"]["family"]
    if mode == "length_q":
        reg = _load_q(config, out, "length", LengthRegressor)
        return (lambda pair: reg), None
    if mode == "mmi_q" and family == "backward_opt1":
        reg = _load_q(config, out, family, BackwardRegressor)
        return (lambda pair: RegressorScorer(reg)), None
    if mode == "mmi_q" and family == "backward_opt2":
        ens = _load_q(config, out, family, PartialBackwardEnsemble)
        return (lambda pair: PartialBackwardScorer(ens)), None
    if mode == "mmi_q":
        raise ConfigError(f"config key 'q.family': mmi_q decodes with a "
                          f"backward family, got {family!r}")
    if mode == "outcome_q":
        pred = _load_q(config, out, "outcome", OutcomePredictor)
        return (lambda pair: OutcomeScorer(pred)), None
    if mode == "mmi_rerank":
        return None, _load_backward(config, out)
    return None, None


def _reference_records(corpus):
    # same record shape as decode output, so either file can stand in as
    # the reference side of an eval
    return [{"id": i,
             "src": " ".join(corpus.src_vocab.decode(pair.src)),
             "hyp": " ".join(corpus.tgt_vocab.decode(pair.tgt[:-1])),
             "len": pair.n}
            for i, pair in enumerate(corpus.pairs)]


def cmd_decode(config, out, manifest):
    model = _load_forward(out)
    d = config["decode"]
    if d["input"] is not None:
        corpus = load_corpus(_require(d["input"], "decode.input must exist"))
    else:
        _, corpus, _ = load_task(config)
    _check_vocab(model, corpus, out)
    dcfg = _from_section(DecodeConfig, d)
    scorer_factory, backward = _build_scorer(config, out, dcfg.mode)
    with timed(manifest, "decode"):
        records, stats = decode_corpus(model, corpus, dcfg, scorer_factory,
                                       backward)
    write_ndjson(out / "decode.ndjson", records)
    write_ndjson(out / "refs.ndjson", _reference_records(corpus))
    manifest.artifacts["decode"] = str(out / "decode.ndjson")
    manifest.artifacts["refs"] = str(out / "refs.ndjson")
    manifest.metrics.update(stats)
    print(f"pairs={stats['pairs']} errors={stats['errors']} "
          f"mode={dcfg.mode} weight={dcfg.weight}")
    return 0


def _aligned_tokens(hyp_records, ref_records):
    hyp_map = {rec["id"]: rec for rec in hyp_records}
    ref_map = {rec["id"]: rec for rec in ref_records}
    if set(hyp_map) != set(ref_map):
        raise ConfigError(
            f"alignment mismatch: {len(hyp_map)} hypothesis ids vs "
            f"{len(ref_map)} reference ids")
    ids = sorted(hyp_map)
    hyps = [hyp_map[i]["hyp"].split() if "hyp" in hyp_map[i] else []
            for i in ids]
    refs = [ref_map[i]["hyp"].split() for i in ids]
    return hyps, refs, sum("hyp" not in hyp_map[i] for i in ids)


METRICS = ("bleu", "rouge2", "distinct1", "distinct2", "len_ratio")


def _metric_table(hyps, refs, smooth):
    """The metrics `eval` and `compare` report for aligned token lists."""
    if not hyps:
        raise ConfigError("no aligned records to evaluate")
    ref_len = sum(len(r) for r in refs)
    return {
        "bleu": bleu(hyps, refs, smooth=smooth),
        "rouge2": sum(map(rouge2, hyps, refs)) / len(hyps),
        "distinct1": distinct_n(hyps, 1),
        "distinct2": distinct_n(hyps, 2),
        "len_ratio": sum(len(h) for h in hyps) / ref_len if ref_len else 0.0,
    }


def _eval_records(path, required):
    """The records of an eval input: int ids, each once, and string hyps."""
    records = read_ndjson(path, required,
                          (("id", lambda v: type(v) is int),
                           ("hyp", lambda v: isinstance(v, str))))
    seen = set()
    for rec in records:
        if rec["id"] in seen:
            raise LoadError(f"{path}: record id {rec['id']} occurs twice")
        seen.add(rec["id"])
    return records


def cmd_eval(config, out, manifest):
    e = config["eval"]
    hyp_path = Path(e["hyp"]) if e["hyp"] else out / "decode.ndjson"
    ref_path = Path(e["ref"]) if e["ref"] else out / "refs.ndjson"
    _require(hyp_path, "run `fdq decode` first or set eval.hyp")
    _require(ref_path, "run `fdq decode` first or set eval.ref")
    hyps, refs, errors = _aligned_tokens(_eval_records(hyp_path, ("id",)),
                                         _eval_records(ref_path, ("id", "hyp")))
    metrics = _metric_table(hyps, refs, e["smooth"])
    bleu_echo = {"max_order": 4, "smooth": e["smooth"],
                 "effective_order": True}
    report = {"pairs": len(hyps), "errors": errors, "metrics": metrics,
              "config": {"smooth": e["smooth"], "bleu": bleu_echo,
                         "hyp": str(hyp_path), "ref": str(ref_path)}}
    write_json(out / "eval.json", report)
    lines = ["metric,value"]
    lines += [f"{name},{value:.6f}" for name, value in metrics.items()]
    (out / "eval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest.artifacts["report"] = str(out / "eval.json")
    manifest.artifacts["csv"] = str(out / "eval.csv")
    manifest.metrics.update(metrics)
    for name, value in metrics.items():
        print(f"{name}={value:.4f}")
    return 0


def _pick_winners(rows):
    # higher is better except len_ratio, which targets 1.0
    winners = {}
    ok = [row for row in rows if row["status"] == "ok"]
    for name in METRICS if ok else ():
        best = (min(ok, key=lambda row: abs(row[name] - 1.0))
                if name == "len_ratio" else max(ok, key=lambda row: row[name]))
        winners[name] = {"mode": best["mode"], "weight": best["weight"]}
    return winners


def cmd_compare(config, out, manifest):
    d = config["decode"]
    if not d["weights"]:
        raise ConfigError("config key 'decode.weights': compare needs a "
                          "non-empty weight grid")
    model = _load_forward(out)
    _, corpus, _ = load_task(config)
    _check_vocab(model, corpus, out)
    for family in Q_FAMILIES:
        # a missing Q file fails its cells; a stale one fails the table
        name = Q_FILE.format(family)
        if (out / name).exists():
            _check_key(config, out, name,
                       f"rerun `fdq train-q` with q.family={family}")
    ref_records = _reference_records(corpus)
    cells = [("sbs", None), ("mmi_rerank", d["weight"])]
    cells += [(mode, w) for mode in d["modes"] for w in d["weights"]]
    rows = []
    with timed(manifest, "compare"):
        for mode, weight in cells:
            row = {"mode": mode, "weight": weight}
            try:
                dcfg = _from_section(DecodeConfig, d, mode=mode, weight=0.0
                                     if weight is None else weight)
                scorer_factory, backward = _build_scorer(config, out, mode)
                records, stats = decode_corpus(model, corpus, dcfg,
                                               scorer_factory, backward)
                hyps, refs, _ = _aligned_tokens(records, ref_records)
                metrics = _metric_table(hyps, refs, smooth=True)
                row.update(status="ok", errors=stats["errors"], **metrics)
            except FdqError as exc:  # a failed cell must not kill the table
                row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
            rows.append(row)
    table = {"rows": rows, "winners": _pick_winners(rows),
             "cells": len(rows), "baselines": ["sbs", "mmi_rerank"]}
    write_json(out / "compare.json", table)
    lines = [",".join(("mode", "weight", "status") + METRICS)]
    for row in rows:
        cells_text = [f"{row[k]:.6f}" if row["status"] == "ok" else ""
                      for k in METRICS]
        weight = "" if row["weight"] is None else f"{row['weight']}"
        lines.append(",".join([row["mode"], weight, row["status"]]
                              + cells_text))
    (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest.artifacts["table"] = str(out / "compare.json")
    manifest.artifacts["csv"] = str(out / "compare.csv")
    for row in rows:
        if row["status"] == "ok":
            print(f"mode={row['mode']} weight={row['weight']} "
                  f"bleu={row['bleu']:.4f} distinct2={row['distinct2']:.4f}")
        else:
            print(f"mode={row['mode']} weight={row['weight']} FAILED "
                  f"({row['error']})")
    return 0


COMMANDS = {"train": cmd_train, "train-q": cmd_train_q, "decode": cmd_decode,
            "eval": cmd_eval, "compare": cmd_compare}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON experiment config")
    common.add_argument("--set", metavar="K=V", action="append", default=[],
                        dest="sets", help="override a config key (repeatable)")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", metavar="N", type=int, help="global seed")
    parser = argparse.ArgumentParser(
        prog="fdq", description="value-guided sequence decoding lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        sub.add_parser(name, parents=[common],
                       help=fn.__doc__ or name)
    return parser


def effective_config(args):
    config = load_config(args.config) if args.config else default_config()
    apply_overrides(config, args.sets)
    if args.out is not None:
        config["out"] = args.out
    if args.seed is not None:
        config["seed"] = args.seed
    return validate_config(config)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = effective_config(args)
        out = Path(config["out"])
        out.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(args.command, config_hash(config),
                               config["seed"])
        code = COMMANDS[args.command](config, out, manifest)
        manifest.write(out / f"{args.command}.manifest.json")
        return code
    except TrainingDivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FdqError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
