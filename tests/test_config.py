"""Strict config parsing, overrides, hashing, and run manifests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq.config import (DEFAULT_CONFIG, RULES, RunManifest, apply_overrides,
                        config_hash, default_config, load_config, timed)
from fdq.errors import ConfigError, ContractError


def leaves(doc, prefix=""):
    """(dotted path, value) of every non-section key of a config."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestStrictParsing:
    def test_empty_document_equals_defaults(self, tmp_path):
        path = write_config(tmp_path, {})
        assert load_config(path) == default_config()

    def test_defaults_are_copied_not_shared(self):
        cfg = default_config()
        cfg["decode"]["beam"] = 99
        assert DEFAULT_CONFIG["decode"]["beam"] != 99

    def test_unknown_top_level_key_is_named(self, tmp_path):
        path = write_config(tmp_path, {"decodee": {}})
        with pytest.raises(ConfigError, match="decodee"):
            load_config(path)

    def test_unknown_nested_key_names_dotted_path(self, tmp_path):
        path = write_config(tmp_path, {"decode": {"beem": 3}})
        with pytest.raises(ConfigError, match="decode.beem"):
            load_config(path)

    def test_wrong_type_is_named(self, tmp_path):
        path = write_config(tmp_path, {"train": {"epochs": "ten"}})
        with pytest.raises(ConfigError, match="train.epochs"):
            load_config(path)

    def test_bool_rejected_where_int_expected(self, tmp_path):
        path = write_config(tmp_path, {"model": {"hidden": True}})
        with pytest.raises(ConfigError, match="model.hidden"):
            load_config(path)

    def test_int_accepted_where_float_expected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"lr": 1}})
        assert load_config(path)["train"]["lr"] == 1

    def test_nullable_keys_accept_null_and_value(self, tmp_path):
        path = write_config(tmp_path, {"decode": {"length": None}})
        assert load_config(path)["decode"]["length"] is None
        path = write_config(tmp_path, {"decode": {"length": 3}}, "b.json")
        assert load_config(path)["decode"]["length"] == 3

    @pytest.mark.parametrize("key, value", [
        ("decode.length", True), ("decode.length", 2.5), ("decode.cap", "abc"),
        ("q.rollout.pairs", 1.0), ("decode.input", 3), ("eval.hyp", False),
        ("eval.ref", [])])
    def test_nullable_keys_keep_their_type(self, key, value):
        with pytest.raises(ConfigError, match=key):
            apply_overrides(default_config(), [f"{key}={json.dumps(value)}"])

    def test_null_rejected_where_the_default_is_not(self):
        with pytest.raises(ConfigError, match="decode.beam"):
            apply_overrides(default_config(), ["decode.beam=null"])

    def test_section_replaced_by_scalar_is_rejected(self, tmp_path):
        path = write_config(tmp_path, {"decode": 3})
        with pytest.raises(ConfigError, match="decode"):
            load_config(path)

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"decode": ', encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_config(path)

    def test_non_object_top_level_rejected(self, tmp_path):
        path = write_config(tmp_path, [1, 2])
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")


class TestOverrides:
    def test_scalar_types_round_trip(self):
        cfg = apply_overrides(default_config(),
                              ["decode.weight=0.25", "decode.mask_eos=false",
                               "task.name=reverse", "decode.length=null"])
        assert cfg["decode"]["weight"] == 0.25
        assert cfg["decode"]["mask_eos"] is False
        assert cfg["task"]["name"] == "reverse"
        assert cfg["decode"]["length"] is None

    def test_list_override_parses_as_json(self):
        cfg = apply_overrides(default_config(),
                              ["decode.weights=[0,2.5]",
                               "q.buckets=[[1,2],[3,null]]"])
        assert cfg["decode"]["weights"] == [0, 2.5]
        assert cfg["q"]["buckets"] == [[1, 2], [3, None]]

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="decode.beem"):
            apply_overrides(default_config(), ["decode.beem=3"])

    def test_section_override_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            apply_overrides(default_config(), ['q={"family":"length"}'])

    def test_missing_equals_sign_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(default_config(), ["decode.weight"])

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            apply_overrides(default_config(), ["train.epochs=1.5"])

    @pytest.mark.parametrize("setting", [
        'decode.weights=["a"]', 'decode.weights=[true]',
        'split=["a",0.1,0.1]', "decode.modes=[1]",
        'q.buckets=[[1,"x"],[3,null]]', "q.buckets=[[1,2],[3]]",
        "q.buckets=[[null,2]]", "q.buckets=[3]"])
    def test_list_element_type_is_named(self, setting, tmp_path):
        key, value = setting.split("=", 1)
        with pytest.raises(ConfigError, match=f"'{key}': every element"):
            apply_overrides(default_config(), [setting])
        doc = json.loads(value)
        for part in reversed(key.split(".")):
            doc = {part: doc}
        with pytest.raises(ConfigError, match=f"'{key}': every element"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("setting", [
        "decode.weight=NaN", "decode.weights=[0.5, Infinity]",
        "train.lr=NaN", "train.clip_norm=-Infinity", "split=[NaN,0.5,0.5]",
        pytest.param("decode.weight=1" + "0" * 400, id="decode.weight=1e400"),
        pytest.param("split=[0.5,-1" + "0" * 400 + ",0.5]",
                     id="split=[0.5,-1e400,0.5]")])
    def test_non_finite_number_is_named(self, setting, tmp_path):
        # json parses NaN, Infinity and integers no float holds; a NaN
        # weight would decide no order
        key, value = setting.split("=", 1)
        with pytest.raises(ConfigError, match=f"'{key}': .*finite"):
            apply_overrides(default_config(), [setting])
        doc = json.loads(value)
        for part in reversed(key.split(".")):
            doc = {part: doc}
        with pytest.raises(ConfigError, match=f"'{key}': .*finite"):
            load_config(write_config(tmp_path, doc))

    def test_every_list_key_types_its_elements(self):
        lists = {path: value for path, value in leaves(DEFAULT_CONFIG)
                 if isinstance(value, list)}
        for path, value in lists.items():
            # the first rule types the elements
            assert "every element" in RULES[path][0](object()), path
            assert all(RULES[path][0](item) is True for item in value), path

    @given(st.integers(min_value=-2 ** 62, max_value=2 ** 62))
    @settings(max_examples=25, deadline=None)
    def test_seed_override_round_trips(self, seed):
        cfg = apply_overrides(default_config(), [f"seed={seed}"])
        assert cfg["seed"] == seed

    def test_later_override_wins(self):
        cfg = apply_overrides(default_config(),
                              ["decode.beam=3", "decode.beam=9"])
        assert cfg["decode"]["beam"] == 9


class TestConfigHash:
    def test_key_order_does_not_matter(self, tmp_path):
        a = write_config(tmp_path, {"decode": {"beam": 9}, "seed": 3}, "a.json")
        b_path = tmp_path / "b.json"
        b_path.write_text('{"seed": 3, "decode": {"beam": 9}}',
                          encoding="utf-8")
        assert config_hash(load_config(a)) == config_hash(load_config(b_path))

    def test_any_leaf_change_changes_hash(self):
        base = config_hash(default_config())
        bumped = apply_overrides(default_config(), ["decode.weight=0.125"])
        assert config_hash(bumped) != base

    def test_file_and_override_agree(self, tmp_path):
        path = write_config(tmp_path, {"decode": {"weight": 0.5}})
        via_file = load_config(path)
        via_set = apply_overrides(default_config(), ["decode.weight=0.5"])
        assert config_hash(via_file) == config_hash(via_set)


# leaves with no RULES entry and a default that is not a bool
UNCHECKED = {
    "seed": "any int seeds the substreams",
    "task.vocab": "num2words takes 0",
    "task.min_len": "TaskSpec checks it with task.max_len at load_task",
    "task.max_len": "TaskSpec checks it with task.min_len at load_task",
    "out": "a path", "decode.input": "a path", "eval.hyp": "a path",
    "eval.ref": "a path"}


class TestValidate:
    def test_default_config_is_valid(self):
        for path, value in leaves(DEFAULT_CONFIG):
            for check in RULES.get(path, ()):
                for item in value if isinstance(value, list) else [value]:
                    if item is not None:
                        assert check(item) is True, path

    def test_every_key_is_ruled_or_unchecked_for_a_reason(self):
        for path, value in leaves(DEFAULT_CONFIG):
            assert ((path in RULES) + isinstance(value, bool)
                    + (path in UNCHECKED)) == 1, path
        assert set(RULES) | set(UNCHECKED) <= dict(leaves(DEFAULT_CONFIG)).keys()

    def test_bad_family_is_named(self):
        with pytest.raises(ConfigError, match="q.family"):
            apply_overrides(default_config(), ["q.family=psychic"])

    def test_zero_pairs_is_named(self):
        with pytest.raises(ConfigError, match="task.pairs"):
            apply_overrides(default_config(), ["task.pairs=0"])

    def test_rollout_pairs_must_be_positive(self):
        with pytest.raises(ConfigError, match="q.rollout.pairs"):
            apply_overrides(default_config(), ["q.rollout.pairs=-40"])
        cfg = apply_overrides(default_config(), ["q.rollout.pairs=1"])
        assert cfg["q"]["rollout"]["pairs"] == 1

    def test_negative_weight_grid_is_named(self):
        with pytest.raises(ConfigError, match="decode.weights"):
            apply_overrides(default_config(), ["decode.weights=[0,-1]"])

    def test_bad_value_in_a_file_is_refused_at_load(self, tmp_path):
        # even where a later --set would replace it, as for a bad type
        path = write_config(tmp_path, {"decode": {"mode": "sbss"}})
        with pytest.raises(ConfigError, match="'decode.mode': 'sbss' is not"):
            load_config(path)


class TestRunManifest:
    def test_write_requires_existing_artifacts(self, tmp_path):
        manifest = RunManifest("train", "abc", 0)
        manifest.artifacts["forward"] = str(tmp_path / "missing.fdq")
        with pytest.raises(ContractError, match="forward"):
            manifest.write(tmp_path / "m.json")

    def test_written_fields(self, tmp_path):
        target = tmp_path / "forward.fdq"
        target.write_bytes(b"FDQ1")
        manifest = RunManifest("train", "abc", 7)
        manifest.artifacts["forward"] = str(target)
        manifest.metrics["dev_ppl"] = 1.25
        with timed(manifest, "train"):
            pass
        doc = json.loads(manifest.write(tmp_path / "m.json").read_text())
        assert doc["command"] == "train"
        assert doc["config_hash"] == "abc"
        assert doc["seed"] == 7
        assert doc["artifacts"] == {"forward": str(target)}
        assert doc["metrics"] == {"dev_ppl": 1.25}
        assert "train" in doc["wall_times"]
        assert {"fdq", "numpy", "python"} <= set(doc["versions"])
