"""End-to-end CLI runs: artifacts, manifests, exit codes, reductions."""

import json
import shutil

import numpy as np
import pytest

from fdq.checkpoint import load_tensors, save_tensors
from fdq.cli import _key, load_task, main
from fdq.config import apply_overrides, load_config
from fdq.decode import DecodeConfig, RegressorScorer, decode_corpus
from fdq.seq2seq import Seq2Seq, TrainSchedule
from fdq.value import (BackwardRegressor, LengthRegressor,
                       PartialBackwardEnsemble, PartialBackwardScorer,
                       backward_examples, length_examples, mse,
                       train_backward_model)

RIG_CONFIG = {
    "task": {"name": "copy", "vocab": 6, "min_len": 1, "max_len": 5,
             "pairs": 200},
    "model": {"hidden": 24, "max_len": 8},
    "train": {"epochs": 8, "lr": 5e-3},
    "q": {"family": "length", "epochs": 40, "lr": 5e-3, "hidden": 24},
    "decode": {"beam": 5},
}


def run(cmd, cfg, out, *sets, seed=1):
    argv = [cmd, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    for item in sets:
        argv += ["--set", item]
    return main(argv)


def copy_forward(out, dst):
    """Copy a trained forward model with its key and the vocabularies it
    is bound to."""
    for name in ("forward.fdq", "forward.fdq.key", "dev.json.src.vocab",
                 "dev.json.tgt.vocab"):
        shutil.copyfile(out / name, dst / name)


def input_corpus(out, dst):
    """A decode.input copy of out's dev corpus and its vocabularies."""
    for suffix in ("", ".src.vocab", ".tgt.vocab"):
        shutil.copyfile(out / f"dev.json{suffix}", dst / f"in.json{suffix}")
    return dst / "in.json"


def read_ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


@pytest.fixture
def rig_config(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(RIG_CONFIG), encoding="utf-8")
    return cfg


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "exp.json"
    cfg.write_text(json.dumps(RIG_CONFIG), encoding="utf-8")
    out = tmp / "run"
    assert run("train", cfg, out) == 0
    assert run("train-q", cfg, out) == 0
    return cfg, out


@pytest.fixture(scope="module")
def opt2_rig(rig, tmp_path_factory):
    # cheap per-bucket ensemble next to a copied forward model; the final
    # bucket is unreachable for length <= 5 targets and must stay empty
    cfg, out = rig
    out2 = tmp_path_factory.mktemp("cli-opt2") / "run"
    out2.mkdir()
    copy_forward(out, out2)
    code = run("train-q", cfg, out2, "q.family=backward_opt2", "q.epochs=2",
               "q.hidden=8", "q.buckets=[[1,5],[6,null]]")
    assert code == 0
    return cfg, out2


@pytest.fixture(scope="module")
def opt1_rig(rig, tmp_path_factory):
    # a cheap backward model next to a copied forward model, then the
    # option-1 head fit on its full-pair scores
    cfg, out = rig
    out3 = tmp_path_factory.mktemp("cli-opt1") / "run"
    out3.mkdir()
    copy_forward(out, out3)
    train, _, _ = load_task(task_config(cfg))
    backward = train_backward_model(train, TrainSchedule(epochs=2, seed=3),
                                    hidden=8, max_len=8)
    backward.save(out3 / "backward.fdq")
    (out3 / "backward.fdq.key").write_text(
        _key(task_config(cfg), out3, "backward.fdq"), encoding="utf-8")
    code = run("train-q", cfg, out3, "q.family=backward_opt1", "q.epochs=5")
    assert code == 0
    return cfg, out3


def task_config(cfg):
    config = load_config(cfg)
    config["seed"] = 1
    return config


class TestParsing:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--frobnicate"])
        assert err.value.code == 2


    @pytest.mark.parametrize("command, settings", [
        ("train", ['decode.weights=["a"]']),
        ("train", ['split=["a",0.1,0.1]']),
        ("train-q", ["q.family=backward_opt2", 'q.buckets=[[1,"x"],[3,null]]'])])
    def test_bad_list_element_exits_two(self, rig_config, tmp_path, capsys,
                                        command, settings):
        assert run(command, rig_config, tmp_path / "run", *settings) == 2
        key = settings[-1].split("=")[0]
        assert f"config key '{key}': every element" in capsys.readouterr().err


    @pytest.mark.parametrize("setting", [
        "decode.weight=NaN", "decode.weights=[0.5, Infinity]",
        "train.lr=NaN", "train.clip_norm=-Infinity", "split=[NaN,0.5,0.5]"])
    def test_non_finite_number_exits_two(self, rig_config, tmp_path, capsys,
                                         setting):
        assert run("train", rig_config, tmp_path / "run", setting) == 2
        key = setting.split("=")[0]
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting", [
        "train.lr=0", "train.lr=-0.05", "q.lr=0", "q.lr=-1e-3",
        "q.backward.lr=0", "q.backward.lr=-1e-3"])
    def test_non_positive_rate_exits_two_and_names_it(
            self, rig_config, tmp_path, capsys, setting):
        # checked before anything runs: a zero rate saved an unmoved model
        # marked trained, and a negative one climbed the loss
        assert run("train", rig_config, tmp_path / "run", setting) == 2
        key = setting.split("=")[0]
        assert f"config key '{key}': must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_zero_clip_norm_still_means_off(self, rig_config):
        config = apply_overrides(load_config(rig_config), ["train.clip_norm=0"])
        assert config["train"]["clip_norm"] == 0

    @pytest.mark.parametrize("setting, message", [
        ("decode.mode=sbss", "'sbss' is not one of"),
        ("q.rollout.metric=bleuu", "'bleuu' is not one of"),
        ("decode.weight=-1", "must be >= 0"),
        ("decode.length=0", "must be >= 1"),
        ("decode.cap=-1", "must be >= 0"),
        ("task.name=copyy", "'copyy' is not one of")])
    def test_bad_value_exits_two_before_anything_is_written(
            self, rig_config, tmp_path, capsys, setting, message):
        # the first five used to pass train and be saved into config.json,
        # to fail only a later command that read them; the task typo
        # failed only after --out was made
        assert run("train", rig_config, tmp_path / "run", setting) == 2
        key = setting.split("=")[0]
        assert f"config key '{key}': {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_task_typo_exits_two_at_eval(self, rig_config, tmp_path, capsys):
        # eval reads no task, so the typo used to pass it
        for name in ("hyp", "ref"):
            (tmp_path / f"{name}.ndjson").write_text(
                '{"id": 0, "hyp": "a b"}\n', encoding="utf-8")
        code = run("eval", rig_config, tmp_path / "run", "task.name=copyy",
                   f"eval.hyp={tmp_path / 'hyp.ndjson'}",
                   f"eval.ref={tmp_path / 'ref.ndjson'}")
        assert code == 2
        assert "config key 'task.name': 'copyy'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_compare_mode_exits_two_and_names_it(self, rig, tmp_path,
                                                         capsys):
        # a typo used to become a FAILED row of a table that exited 0
        cfg, out = rig
        copy_forward(out, tmp_path)
        code = run("compare", cfg, tmp_path, 'decode.modes=["lenght_q"]')
        assert code == 2
        err = capsys.readouterr().err
        assert "config key 'decode.modes': 'lenght_q' is not one of" in err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("command, setting", [
        ("train", "q.backward.hidden=0"), ("train", "q.backward.epochs=-1"),
        ("train-q", "q.rollout.positions=0"),
        ("train-q", "q.rollout.samples=0"), ("train", "train.clip_norm=-1")])
    def test_out_of_range_count_exits_two_and_names_it(
            self, rig, tmp_path, capsys, command, setting):
        # checked before anything runs: a bad backward schedule used to
        # fail (or, at epochs=-1, pass untrained) after forward.fdq was
        # saved, and a negative clip norm to turn clipping off
        cfg, out = rig
        if command == "train":
            out = tmp_path / "run"  # where nothing may be saved
        family = "backward_opt1" if command == "train" else "outcome"
        assert run(command, cfg, out, f"q.family={family}", setting) == 2
        key = setting.split("=")[0]
        assert f"config key '{key}': must be >= " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestTrain:
    def test_artifacts_exist(self, rig):
        _, out = rig
        for name in ("forward.fdq", "dev.json", "dev.json.src.vocab",
                     "dev.json.tgt.vocab", "config.json",
                     "train.manifest.json"):
            assert (out / name).exists(), name

    def test_manifest_contents(self, rig):
        cfg, out = rig
        doc = json.loads((out / "train.manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 1
        assert doc["metrics"]["dev_ppl"] > 1.0
        assert "train" in doc["wall_times"]
        from fdq.config import config_hash
        effective = load_config(cfg)
        effective["out"] = str(out)
        effective["seed"] = 1
        assert doc["config_hash"] == config_hash(effective)

    def test_rerun_reproduces_checkpoint_bytes(self, rig, tmp_path):
        cfg, out = rig
        assert run("train", cfg, tmp_path / "again") == 0
        first = (out / "forward.fdq").read_bytes()
        second = (tmp_path / "again" / "forward.fdq").read_bytes()
        assert first == second
        a = json.loads((out / "train.manifest.json").read_text())
        b = json.loads((tmp_path / "again" / "train.manifest.json").read_text())
        assert a["config_hash"] != b["config_hash"]  # out dir differs
        a["artifacts"] = b["artifacts"] = None
        a["wall_times"] = b["wall_times"] = None
        a["config_hash"] = b["config_hash"] = None
        assert a == b

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"decode": ', encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        "config_not_utf8", "config_is_a_directory", "eval_hyp_not_utf8"])
    def test_unreadable_input_exits_two_and_names_it(self, rig_config,
                                                     tmp_path, capsys, bad):
        path = tmp_path / "bad"
        if bad == "config_is_a_directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"id": 0, "hyp": "caf\xe9"}\n')
        if bad == "eval_hyp_not_utf8":
            ref = tmp_path / "ref.ndjson"
            ref.write_text('{"id": 0, "hyp": "a"}\n', encoding="utf-8")
            code = run("eval", rig_config, tmp_path / "run",
                       f"eval.hyp={path}", f"eval.ref={ref}")
        else:
            code = main(["train", "--config", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_unknown_key_exits_two_and_names_it(self, tmp_path, capsys):
        # a typo, and the retired keys of options no workload set
        bad = tmp_path / "bad.json"
        for key in ("decode.beem", "model.attention", "train.optimizer",
                    "train.patience", "decode.nbest", "eval.smooth",
                    "q.rollout.prefix_source", "train.batch_size",
                    "q.batch_size", "q.backward.batch_size", "q.rollout.beam"):
            doc = 3
            for part in reversed(key.split(".")):
                doc = {part: doc}
            bad.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["train", "--config", str(bad)]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_divergence_exits_three(self, rig, tmp_path, capsys):
        cfg, _ = rig
        # a finite lr, which float32 parameters overflow to inf; inf - inf
        # then makes the NaN the divergence check catches
        with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            code = run("train", cfg, tmp_path / "r", "train.lr=1e300",
                       "train.epochs=2", "task.pairs=40")
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_overflowing_dev_perplexity_exits_three(self, rig, tmp_path,
                                                    capsys, monkeypatch):
        # a finite dev cross-entropy whose exp overflows a float
        cfg, _ = rig
        monkeypatch.setattr("fdq.cli.dataset_ce", lambda model, corpus: 800.0)
        code = run("train", cfg, tmp_path / "r", "train.epochs=1",
                   "task.pairs=40")
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "dev_ce=800.0000" in err

    def test_empty_split_part_exits_two(self, rig, tmp_path, capsys):
        # 50 pairs at 1% leave no dev pair, whose perplexity would read 1
        cfg, _ = rig
        code = run("train", cfg, tmp_path / "r", "split=[0.98,0.01,0.01]",
                   "task.pairs=50", "train.epochs=1")
        assert code == 2
        assert "leave dev empty" in capsys.readouterr().err
        assert not (tmp_path / "r" / "dev.json").exists()


class TestTrainQ:
    def test_length_metrics_beat_baseline(self, rig):
        _, out = rig
        assert (out / "q_length.fdq").exists()
        doc = json.loads((out / "train-q.manifest.json").read_text())
        assert doc["metrics"]["mse"] < doc["metrics"]["baseline_mse"]

    def test_missing_forward_exits_two(self, rig, tmp_path, capsys):
        cfg, _ = rig
        assert run("train-q", cfg, tmp_path / "empty") == 2
        assert "fdq train" in capsys.readouterr().err

    def test_vocab_mismatch_exits_two(self, rig, tmp_path, capsys):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        assert run("train-q", cfg, out2, "task.vocab=9") == 2
        assert "vocab" in capsys.readouterr().err

    def test_vocab_binding_exits_two(self, rig, tmp_path, capsys):
        # same vocab sizes, another token-to-id map: another task, or the
        # same task drawn under another seed.  The key of forward.fdq
        # binds both, and the sidecars bind a decode.input corpus
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        shutil.copyfile(out / "forward.fdq", out2 / "forward.fdq")
        assert run("decode", cfg, out2) == 2
        assert "forward.fdq.key differs or is missing" in \
            capsys.readouterr().err
        copy_forward(out, out2)
        for sets, seed in ((["task.name=reverse"], 1), ([], 2)):
            assert run("decode", cfg, out2, *sets, seed=seed) == 2
            err = capsys.readouterr().err
            assert f"{out2 / 'forward.fdq'} was not made from this task" in err
            assert "rerun `fdq train`" in err
        assert run("decode", cfg, out2) == 0
        corpus = input_corpus(out, tmp_path)
        vocab = tmp_path / "in.json.tgt.vocab"
        lines = vocab.read_text(encoding="utf-8").splitlines()
        lines[4], lines[5] = lines[5], lines[4]
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("decode", cfg, out2, f"decode.input={corpus}") == 2
        assert "dev.json.tgt.vocab differs" in capsys.readouterr().err

    def test_repeated_vocab_token_exits_two(self, rig, tmp_path, capsys):
        cfg, out = rig
        corpus = input_corpus(out, tmp_path)
        vocab = tmp_path / "in.json.tgt.vocab"
        lines = vocab.read_text(encoding="utf-8").splitlines()
        vocab.write_text("\n".join(lines + lines[4:5]) + "\n",
                         encoding="utf-8")
        assert run("decode", cfg, out, f"decode.input={corpus}") == 2
        assert f"{vocab}: a token occurs twice" in capsys.readouterr().err

    def test_split_change_exits_two(self, rig, tmp_path, capsys):
        # dev pairs of another split may be the forward model's training
        # pairs, so neither a Q fit nor a decode may run on them
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        for name in ("q_length.fdq", "q_length.fdq.key"):
            shutil.copyfile(out / name, out2 / name)
        split = "split=[0.6,0.3,0.1]"
        for command, sets in (("train-q", []), ("decode", []),
                              ("decode", ["decode.mode=length_q"])):
            assert run(command, cfg, out2, split, *sets) == 2
            err = capsys.readouterr().err
            assert f"{out2 / 'forward.fdq'} was not made from this task, " \
                "split" in err
        assert run("decode", cfg, out2, "decode.mode=length_q") == 0

    def test_opt1_without_backward_exits_two(self, rig, tmp_path, capsys):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        assert run("train-q", cfg, out2, "q.family=backward_opt1") == 2
        assert "backward" in capsys.readouterr().err

    def test_opt2_writes_only_populated_buckets(self, rig, opt2_rig):
        cfg, out2 = opt2_rig
        target = out2 / "q_backward_opt2.fdq"
        ensemble = PartialBackwardEnsemble.load(target)
        names = load_tensors(target)
        prefixes = {name.split("/")[0] for name in names if "/" in name}
        assert "b0" in prefixes and "b1" not in prefixes
        train, _, _ = load_task(task_config(cfg))
        doc = json.loads((out2 / "train-q.manifest.json").read_text())
        counts = doc["metrics"]["bucket_examples"]
        assert sum(counts.values()) == sum(pair.n for pair in train.pairs)
        assert ensemble.buckets[0] == (1, 5)

    @pytest.mark.parametrize("family", ["length", "backward_opt1"])
    def test_manifest_mse_matches_recomputed(self, rig, opt1_rig, family):
        cfg, out = rig if family == "length" else opt1_rig
        train, dev, _ = load_task(task_config(cfg))
        forward = Seq2Seq.load(out / "forward.fdq")
        if family == "length":
            reg = LengthRegressor.load(out / "q_length.fdq")
            examples = lambda c: length_examples(forward, c)  # noqa: E731
        else:
            reg = BackwardRegressor.load(out / "q_backward_opt1.fdq")
            backward = Seq2Seq.load(out / "backward.fdq")
            examples = lambda c: backward_examples(  # noqa: E731
                forward, backward, c)
        _, train_labels, _ = examples(train)
        dev_feats, dev_labels, _ = examples(dev)
        doc = json.loads((out / "train-q.manifest.json").read_text())
        assert doc["metrics"]["mse"] == mse(reg.predict(dev_feats), dev_labels)
        # the baseline as (label - mean)^2, bit for bit
        mean = float(np.mean(train_labels))
        assert doc["metrics"]["baseline_mse"] == float(
            np.mean((dev_labels - mean) ** 2))

    def test_stale_rollouts_exit_two(self, rig, tmp_path, capsys):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        sets = ("q.family=outcome", "q.epochs=2", "q.hidden=8",
                "q.rollout.pairs=10")
        assert run("train-q", cfg, out2, *sets) == 0
        capsys.readouterr()
        assert run("train-q", cfg, out2, *sets, "q.rollout.metric=rouge2") == 2
        assert "rollouts.ndjson" in capsys.readouterr().err
        assert run("train", cfg, out2, "train.epochs=2") == 0
        assert run("train-q", cfg, out2, *sets) == 2
        assert "rollouts.ndjson" in capsys.readouterr().err

    def test_mistyped_rollout_field_exits_two(self, rig, tmp_path, capsys):
        # the rollouts key binds config and forward.fdq, not the file's
        # own bytes, so an edited line reaches the loader
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        sets = ("q.family=outcome", "q.epochs=2", "q.hidden=8",
                "q.rollout.pairs=10")
        assert run("train-q", cfg, out2, *sets) == 0
        rpath = out2 / "rollouts.ndjson"
        lines = rpath.read_text().splitlines()
        for field, value in (("q", "high"), ("prefix", "ab"), ("q", True),
                             ("q", float("nan")), ("q", 10 ** 400),
                             ("t", 1.0)):
            rec = dict(json.loads(lines[1]), **{field: value})
            rpath.write_text("\n".join([lines[0], json.dumps(rec)]
                                       + lines[2:]) + "\n")
            capsys.readouterr()
            assert run("train-q", cfg, out2, *sets) == 2
            err = capsys.readouterr().err
            assert f"{rpath}:2: wrong type for ['{field}']" in err
        # a blank line, then a record with an extra field, on line 3
        rec = dict(json.loads(lines[1]), extra=1)
        rpath.write_text("\n".join([lines[0], "", json.dumps(rec)]
                                   + lines[2:]) + "\n")
        capsys.readouterr()
        assert run("train-q", cfg, out2, *sets) == 2
        assert f"{rpath}:3: fields" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["vocab", -1])
    def test_out_of_vocab_rollout_id_exits_two(self, rig, tmp_path, capsys,
                                               bad):
        # an id past the vocabulary used to raise an IndexError, and a
        # negative one to index the embedding from its end and train
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        sets = ("q.family=outcome", "q.epochs=2", "q.hidden=8",
                "q.rollout.pairs=10")
        assert run("train-q", cfg, out2, *sets) == 0
        (out2 / "q_outcome.fdq").unlink()
        if bad == "vocab":
            bad = len(load_task(task_config(cfg))[0].tgt_vocab)
        rpath = out2 / "rollouts.ndjson"
        lines = rpath.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["prefix"][-1] = bad
        rpath.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert run("train-q", cfg, out2, *sets) == 2
        assert f"prefix id {bad} outside vocabulary" in capsys.readouterr().err
        assert not (out2 / "q_outcome.fdq").exists()

    def test_stale_q_exits_two(self, rig, opt1_rig, tmp_path, capsys):
        # a Q file decodes only next to the models its key names
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        shutil.copyfile(out / "q_length.fdq", out2 / "q_length.fdq")
        assert run("decode", cfg, out2, "decode.mode=length_q") == 2
        assert "q_length.fdq.key" in capsys.readouterr().err
        shutil.copyfile(out / "q_length.fdq.key", out2 / "q_length.fdq.key")
        assert run("decode", cfg, out2, "decode.mode=length_q") == 0
        for retrain in ("train.epochs=4", "model.hidden=12"):
            assert run("train", cfg, out2, retrain) == 0
            capsys.readouterr()
            assert run("decode", cfg, out2, "decode.mode=length_q") == 2
            assert "q_length.fdq was not made" in capsys.readouterr().err
            assert run("compare", cfg, out2, "decode.modes=[\"length_q\"]",
                       "decode.weights=[1.0]") == 2
            assert "q_length.fdq was not made" in capsys.readouterr().err
        out3 = tmp_path / "opt1"
        shutil.copytree(opt1_rig[1], out3)
        Seq2Seq(4, 4, hidden=2).save(out3 / "backward.fdq")  # another one
        assert run("decode", cfg, out3, "decode.mode=mmi_q",
                   "q.family=backward_opt1") == 2
        assert "q_backward_opt1.fdq was not made" in capsys.readouterr().err

    def test_outcome_generates_then_reuses_rollouts(self, rig, tmp_path,
                                                    capsys):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        sets = ("q.family=outcome", "q.epochs=5", "q.hidden=16",
                "q.rollout.pairs=20")
        assert run("train-q", cfg, out2, *sets) == 0
        assert "(generated)" in capsys.readouterr().out
        first = (out2 / "rollouts.ndjson").read_bytes()
        assert (out2 / "q_outcome.fdq").exists()
        assert run("train-q", cfg, out2, *sets) == 0
        assert "(loaded)" in capsys.readouterr().out
        (out2 / "rollouts.ndjson").unlink()
        assert run("train-q", cfg, out2, *sets) == 0
        assert (out2 / "rollouts.ndjson").read_bytes() == first


class TestDecode:
    def test_sbs_outputs_and_rerun_identical(self, rig):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        records = read_ndjson(out / "decode.ndjson")
        refs = read_ndjson(out / "refs.ndjson")
        dev_size = int(RIG_CONFIG["task"]["pairs"] * 0.1)
        assert len(records) == len(refs) == dev_size
        assert all(rec["ms"] == 0.0 for rec in records if "ms" in rec)
        first = (out / "decode.ndjson").read_bytes()
        assert run("decode", cfg, out) == 0
        assert (out / "decode.ndjson").read_bytes() == first

    def test_too_large_exhaustive_space_exits_two(self, rig, tmp_path,
                                                  capsys):
        # 10^8 sequences at the default cap: decode used to exit 0 with an
        # error record for every pair; compare now fails the cell once
        cfg, out = rig
        copy_forward(out, tmp_path)
        assert run("decode", cfg, tmp_path, "decode.mode=exhaustive") == 2
        assert "search space 10^8 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "decode.ndjson").exists()
        code = run("compare", cfg, tmp_path, 'decode.modes=["exhaustive"]',
                   "decode.weights=[0.0]")
        assert code == 0
        rows = json.loads((tmp_path / "compare.json").read_text())["rows"]
        assert [row["status"] for row in rows] == ["ok", "failed", "failed"]
        assert rows[2]["error"].startswith("SearchSpaceError: search space")

    def test_mmi_q_weight_zero_matches_sbs_hyps(self, opt2_rig):
        cfg, out2 = opt2_rig
        assert run("decode", cfg, out2) == 0
        sbs = [rec["hyp"] for rec in read_ndjson(out2 / "decode.ndjson")]
        code = run("decode", cfg, out2, "decode.mode=mmi_q",
                   "decode.weight=0.0", "q.family=backward_opt2")
        assert code == 0
        guided = [rec["hyp"] for rec in read_ndjson(out2 / "decode.ndjson")]
        assert guided == sbs

    def test_length_q_pins_per_record_lengths(self, rig):
        # length defaults to each record's gold L; the admission step at
        # L+1 succeeds there, so every hypothesis lands on its target
        cfg, out = rig
        code = run("decode", cfg, out, "decode.mode=length_q")
        assert code == 0
        records = read_ndjson(out / "decode.ndjson")
        refs = read_ndjson(out / "refs.ndjson")
        assert all("error" not in rec for rec in records)
        assert [rec["len"] for rec in records] == [r["len"] for r in refs]

    def test_mmi_q_decodes_with_the_named_family(self, opt1_rig, opt2_rig):
        cfg, out3 = opt1_rig
        for name in ("q_backward_opt2.fdq", "q_backward_opt2.fdq.key"):
            shutil.copyfile(opt2_rig[1] / name, out3 / name)
        _, dev, _ = load_task(task_config(cfg))
        forward = Seq2Seq.load(out3 / "forward.fdq")
        reg = BackwardRegressor.load(out3 / "q_backward_opt1.fdq")
        ens = PartialBackwardEnsemble.load(out3 / "q_backward_opt2.fdq")
        dcfg = DecodeConfig(mode="mmi_q", beam=5, weight=1.0)
        want = {
            "backward_opt1": lambda pair: RegressorScorer(reg),
            "backward_opt2": lambda pair: PartialBackwardScorer(ens)}
        got = {}
        for family, factory in want.items():
            code = run("decode", cfg, out3, "decode.mode=mmi_q",
                       f"q.family={family}")
            assert code == 0
            got[family] = read_ndjson(out3 / "decode.ndjson")
            records, _ = decode_corpus(forward, dev, dcfg, factory)
            assert got[family] == records
        assert got["backward_opt1"] != got["backward_opt2"]

    def test_mmi_q_needs_a_backward_family(self, opt2_rig, capsys):
        cfg, out2 = opt2_rig  # q_backward_opt2.fdq is on disk
        assert run("decode", cfg, out2, "decode.mode=mmi_q") == 2
        assert "q.family" in capsys.readouterr().err

    def test_missing_q_checkpoint_exits_two(self, opt2_rig, capsys):
        cfg, out2 = opt2_rig
        assert run("decode", cfg, out2, "decode.mode=outcome_q") == 2
        assert "q_outcome.fdq" in capsys.readouterr().err

    def test_stale_backward_exits_two(self, rig, tmp_path, capsys):
        # a backward model trained under seed 1 must not rerank or label
        # the corpus a later seed-2 train left in the same directory
        cfg, _ = rig
        out = tmp_path / "r"
        cheap = ("train.epochs=1", "q.backward.epochs=1",
                 "q.backward.hidden=4")
        assert run("train", cfg, out, "q.family=backward_opt1", *cheap) == 0
        assert run("decode", cfg, out, "decode.mode=mmi_rerank") == 0
        assert run("train", cfg, out, *cheap, seed=2) == 0
        capsys.readouterr()
        assert run("decode", cfg, out, "decode.mode=mmi_rerank", seed=2) == 2
        assert "backward.fdq was not made" in capsys.readouterr().err
        assert run("train-q", cfg, out, "q.family=backward_opt1", seed=2) == 2
        assert "backward.fdq was not made" in capsys.readouterr().err
        assert run("compare", cfg, out, "decode.modes=[]",
                   "decode.weights=[1.0]", seed=2) == 0
        rows = json.loads((out / "compare.json").read_text())["rows"]
        rerank = [row for row in rows if row["mode"] == "mmi_rerank"]
        assert [row["status"] for row in rerank] == ["failed"]
        assert "backward.fdq was not made" in rerank[0]["error"]

    @pytest.mark.parametrize("command, setting", [
        ("decode", "decode.cap=abc"), ("decode", "decode.length=2.5"),
        ("decode", "decode.length=true"),
        ("train-q", "q.rollout.pairs=-40")])
    def test_bad_nullable_key_exits_two(self, rig, capsys, command, setting):
        cfg, out = rig
        assert run(command, cfg, out, "q.family=outcome", setting) == 2
        assert f"config key '{setting.split('=')[0]}'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line, why", [
        ('{"src": [4, 5], "tgt": [4', "malformed JSON"),
        ('{"tgt": [4, 2]}', "lacks ['src']"),
        ('{"src": "ab", "tgt": [4, 2]}', "wrong type for ['src']"),
        ('{"src": [4, 5], "tgt": [4, true]}', "wrong type for ['tgt']")])
    def test_malformed_input_exits_two(self, rig, tmp_path, capsys, line,
                                       why):
        cfg, out = rig
        corpus = input_corpus(out, tmp_path)
        first = (out / "dev.json").read_text().splitlines()[0]
        corpus.write_text(f"{first}\n{line}\n")
        assert run("decode", cfg, out, f"decode.input={corpus}") == 2
        err = capsys.readouterr().err
        assert f"{corpus}:2: " in err and why in err

    def test_input_breaking_a_corpus_rule_exits_two_and_names_it(
            self, rig, tmp_path, capsys):
        cfg, out = rig
        corpus = input_corpus(out, tmp_path)
        lines = (out / "dev.json").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["tgt"] = rec["tgt"][:-1]  # no EOS
        corpus.write_text("\n".join(lines[:2] + [json.dumps(rec)]) + "\n")
        assert run("decode", cfg, out, f"decode.input={corpus}") == 2
        assert f"{corpus}: pair 2: target must end with EOS" in \
            capsys.readouterr().err

    def test_input_with_an_empty_source_exits_two_and_names_it(
            self, rig, tmp_path, capsys):
        cfg, out = rig
        corpus = input_corpus(out, tmp_path)
        lines = (out / "dev.json").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["src"] = []
        corpus.write_text("\n".join(lines[:2] + [json.dumps(rec)]) + "\n")
        assert run("decode", cfg, out, f"decode.input={corpus}") == 2
        assert f"{corpus}: pair 2: source sequence is empty" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("damage, why", [
        ("nan_tensor", "tensor out/b is not finite"),
        ("bad_name", "name is not UTF-8")])
    def test_unloadable_forward_exits_two_and_names_it(
            self, rig, tmp_path, capsys, damage, why):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        path = out2 / "forward.fdq"
        if damage == "nan_tensor":
            named = load_tensors(path)
            named["out/b"][0] = np.nan
            save_tensors(path, named)
        else:
            # the first match is the manifest entry: names precede payloads
            raw = path.read_bytes()
            path.write_bytes(raw.replace(b"out/b", b"out/\xff", 1))
        assert run("decode", cfg, out2) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and why in err

    def test_forward_missing_a_parameter_exits_two(self, rig, opt2_rig,
                                                   tmp_path, capsys):
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        # a Q key binds forward.fdq, not the Q file, so an edited meta
        # reaches the loader: two values appended to each head's meta
        for src, mode, family, tag in (
                (out, "length_q", "length", "length_q"),
                (opt2_rig[1], "mmi_q", "backward_opt2", "backward_q2")):
            qpath = out2 / f"q_{family}.fdq"
            for name in (qpath.name, f"{qpath.name}.key"):
                shutil.copyfile(src / name, out2 / name)
            named = load_tensors(qpath)
            named["meta"] = np.append(named["meta"], np.float32([99, 7]))
            save_tensors(qpath, named)
            assert run("decode", cfg, out2, f"decode.mode={mode}",
                       f"q.family={family}") == 2
            assert f"{qpath}: not a {tag}" in capsys.readouterr().err
        named = load_tensors(out2 / "forward.fdq")
        del named["out/b"]
        save_tensors(out2 / "forward.fdq", named)
        assert run("decode", cfg, out2) == 2
        assert f"{out2 / 'forward.fdq'}: not a seq2seq" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["extra_tensor", "scalar_meta",
                                        "empty_bucket_group"])
    def test_damaged_checkpoint_exits_two(self, rig, opt2_rig, tmp_path,
                                          capsys, damage):
        # each damage keeps every tensor the model wants, as it wants it
        cfg, out = rig
        out2 = tmp_path / "r"
        out2.mkdir()
        copy_forward(out, out2)
        path, tag, sets = out2 / "forward.fdq", "seq2seq", []
        if damage == "empty_bucket_group":
            # opt2_rig's last bucket is empty
            path, tag = out2 / "q_backward_opt2.fdq", "backward_q2"
            for name in (path.name, f"{path.name}.key"):
                shutil.copyfile(opt2_rig[1] / name, out2 / name)
            sets = ["decode.mode=mmi_q", "q.family=backward_opt2"]
        named = load_tensors(path)
        if damage == "extra_tensor":
            named["junk/w"] = np.zeros(2, dtype=np.float32)
        elif damage == "scalar_meta":
            named["meta"] = named["meta"][0]
        else:
            named.update({"b1/" + k[3:]: v for k, v in list(named.items())
                          if k.startswith("b0/")})
        save_tensors(path, named)
        assert run("decode", cfg, out2, *sets) == 2
        assert f"{path}: not a {tag}" in capsys.readouterr().err

    def test_corpus_cache_as_input(self, rig):
        cfg, out = rig
        code = run("decode", cfg, out,
                   f"decode.input={out / 'dev.json'}")
        assert code == 0
        records = read_ndjson(out / "decode.ndjson")
        assert len(records) == int(RIG_CONFIG["task"]["pairs"] * 0.1)


class TestEval:
    def test_report_and_csv(self, rig):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        assert run("eval", cfg, out) == 0
        report = json.loads((out / "eval.json").read_text())
        assert set(report["metrics"]) == {"bleu", "rouge2", "distinct1",
                                          "distinct2", "len_ratio"}
        assert report["config"]["smooth"] is True
        assert report["config"]["bleu"]["smooth"] is True
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 6

    def test_hyp_copied_from_ref_scores_one(self, rig):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        shutil.copyfile(out / "refs.ndjson", out / "perfect.ndjson")
        code = run("eval", cfg, out,
                   f"eval.hyp={out / 'perfect.ndjson'}")
        assert code == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["metrics"]["bleu"] == 1.0
        assert report["metrics"]["len_ratio"] == 1.0
        # single-token references carry no bigrams, so their rouge2 is 0
        # even against themselves
        refs = read_ndjson(out / "refs.ndjson")
        expected = sum(1.0 for r in refs if len(r["hyp"].split()) >= 2) \
            / len(refs)
        assert report["metrics"]["rouge2"] == pytest.approx(expected)

    def test_alignment_mismatch_exits_two(self, rig, capsys):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        lines = (out / "decode.ndjson").read_text().splitlines()
        (out / "short.ndjson").write_text("\n".join(lines[:-1]) + "\n")
        code = run("eval", cfg, out, f"eval.hyp={out / 'short.ndjson'}")
        assert code == 2
        assert "alignment mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("side, field", [("hyp", "id"), ("ref", "id"),
                                             ("ref", "hyp")])
    def test_record_without_field_exits_two(self, rig, capsys, side, field):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        refs = read_ndjson(out / "refs.ndjson")
        bad = out / f"no_{field}.ndjson"
        bad.write_text("".join(json.dumps({k: v for k, v in rec.items()
                                           if k != field}) + "\n"
                               for rec in refs))
        capsys.readouterr()
        assert run("eval", cfg, out, f"eval.{side}={bad}") == 2
        assert f"{bad}:1: record lacks ['{field}']" in capsys.readouterr().err

    def test_duplicate_id_exits_two(self, rig_config, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.ndjson", tmp_path / "hyp.ndjson"
        ref.write_text('{"id": 0, "hyp": "a b"}\n')
        hyp.write_text('{"id": 0, "hyp": "a b"}\n{"id": 0, "hyp": "c"}\n')
        assert run("eval", rig_config, tmp_path / "run", f"eval.hyp={hyp}",
                   f"eval.ref={ref}") == 2
        assert f"{hyp}: record id 0 occurs twice" in capsys.readouterr().err

    def test_non_int_id_exits_two(self, rig_config, tmp_path, capsys):
        both = tmp_path / "both.ndjson"
        both.write_text('{"id": 0, "hyp": "a b"}\n{"id": "x", "hyp": "c"}\n')
        assert run("eval", rig_config, tmp_path / "run", f"eval.hyp={both}",
                   f"eval.ref={both}") == 2
        assert f"{both}:2: wrong type for ['id']" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["hyp", "ref"])
    def test_non_string_hyp_exits_two(self, rig, capsys, side):
        cfg, out = rig
        assert run("decode", cfg, out) == 0
        refs = read_ndjson(out / "refs.ndjson")
        refs[0]["hyp"] = 3
        bad = out / "int_hyp.ndjson"
        bad.write_text("".join(json.dumps(rec) + "\n" for rec in refs))
        capsys.readouterr()
        assert run("eval", cfg, out, f"eval.{side}={bad}") == 2
        assert f"{bad}:1: wrong type for ['hyp']" in capsys.readouterr().err


class TestCompare:
    def test_table_rows_reduction_and_failed_cell(self, opt2_rig):
        cfg, out2 = opt2_rig
        code = run("compare", cfg, out2, "decode.modes=[\"mmi_q\"]",
                   "decode.weights=[0.0,1.0]", "q.family=backward_opt2")
        assert code == 0
        table = json.loads((out2 / "compare.json").read_text())
        assert table["cells"] == len(table["rows"]) == 4
        by_key = {(row["mode"], row["weight"]): row for row in table["rows"]}
        sbs = by_key[("sbs", None)]
        zero = by_key[("mmi_q", 0.0)]
        assert sbs["status"] == zero["status"] == "ok"
        for name in ("bleu", "rouge2", "distinct1", "distinct2", "len_ratio"):
            assert zero[name] == sbs[name]
        # no backward model on disk, so the rerank baseline cell fails
        # without killing the table
        rerank = by_key[("mmi_rerank", 1.0)]
        assert rerank["status"] == "failed"
        assert "backward" in rerank["error"]
        for winner in table["winners"].values():
            assert (winner["mode"], winner["weight"]) in by_key
            assert by_key[(winner["mode"], winner["weight"])]["status"] == "ok"
        lines = (out2 / "compare.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("mode,weight,status")

    def test_empty_weight_grid_exits_two(self, opt2_rig, capsys):
        cfg, out2 = opt2_rig
        assert run("compare", cfg, out2, "decode.weights=[]") == 2
        assert "decode.weights" in capsys.readouterr().err


class TestManifests:
    def test_shared_hash_and_existing_artifacts(self, rig):
        cfg, out = rig
        hashes, artifacts = set(), []
        for name in ("train.manifest.json", "train-q.manifest.json"):
            doc = json.loads((out / name).read_text())
            hashes.add(doc["config_hash"])
            artifacts += list(doc["artifacts"].values())
        assert len(hashes) == 1
        for path in artifacts:
            assert json.loads(json.dumps(path)) == path  # manifest is JSON-safe
        import os
        assert all(os.path.exists(path) for path in artifacts)
