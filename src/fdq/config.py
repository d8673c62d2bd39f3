"""Experiment configuration: strict JSON documents plus run manifests.

A config is one JSON file merged over :data:`DEFAULT_CONFIG`.  Parsing is
strict: any key absent from the defaults is rejected by name, and a leaf
value must keep the default's JSON type (:data:`NULLABLE` types the null
defaults) and pass the checks :data:`RULES` gives its key.  ``--set
key.path=value`` overrides reuse the same rules, so a sweep can never
silently typo a knob into a no-op, and a bad value fails where it enters.
"""

import hashlib
import json
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import TASKS, read_text
from .decode import MODES
from .errors import ConfigError, ContractError
from .value import ROLLOUT_METRICS

DEFAULT_CONFIG = {
    "task": {"name": "copy", "vocab": 12, "min_len": 1, "max_len": 8,
             "pairs": 500},
    "split": [0.8, 0.1, 0.1],
    "model": {"hidden": 32, "max_len": 12},
    "train": {"epochs": 10, "lr": 5e-3, "clip_norm": 5.0},
    "q": {
        "family": "length",
        "hidden": 32,
        "epochs": 30,
        "lr": 5e-3,
        # schedule for the full backward model (family backward_opt1 and
        # the mmi_rerank baseline both need one)
        "backward": {"hidden": 32, "epochs": 30, "lr": 5e-3},
        "buckets": [[1, 2], [3, 4], [5, 7], [8, 12], [13, None]],
        "rollout": {"positions": 4, "samples": 2, "metric": "bleu",
                    "pairs": None},
    },
    "decode": {"mode": "sbs", "beam": 7, "weight": 1.0, "length": None,
               "cap": None, "mask_eos": True, "use_length_protocol": False,
               "input": None, "modes": ["length_q"],
               "weights": [0.0, 0.5, 1.0]},
    "eval": {"hyp": None, "ref": None},
    "out": "run",
    "seed": 0,
}

Q_FAMILIES = ("length", "backward_opt1", "backward_opt2", "outcome")


# the type of each key whose default is None; only these may be null
NULLABLE = {"decode.length": int, "decode.cap": int, "q.rollout.pairs": int,
            "decode.input": str, "eval.hyp": str, "eval.ref": str}


def _is_number(value):
    """A JSON number that is a finite float; json also parses NaN, Infinity
    and integers too large for a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _each(what, ok):
    return lambda v: ok(v) or f"every element must be {what}, got {v!r}"


def _at_least(lo):
    return lambda v: v >= lo or f"must be >= {lo}, got {v}"


def _one_of(known):
    return lambda v: v in known or f"{v!r} is not one of {known}"


def _positive(v):
    # a zero rate trains nothing, and a negative one climbs the loss
    return v > 0 or f"must be > 0, got {v}"


# the checks each key's value (each element, for a list) must pass after
# its type check; each returns True or what is wrong
RULES = {
    "task.name": [_one_of(TASKS)], "task.pairs": [_at_least(1)],
    "split": [_each("a finite number", _is_number)],
    "model.hidden": [_at_least(1)], "model.max_len": [_at_least(1)],
    "train.epochs": [_at_least(0)], "train.lr": [_positive],
    "train.clip_norm": [_at_least(0)],
    "q.family": [_one_of(Q_FAMILIES)], "q.hidden": [_at_least(1)],
    "q.epochs": [_at_least(0)], "q.lr": [_positive],
    "q.backward.hidden": [_at_least(1)], "q.backward.epochs": [_at_least(0)],
    "q.backward.lr": [_positive],
    "q.buckets": [_each("an [int, int or null] pair", lambda v: (
        isinstance(v, list) and len(v) == 2 and type(v[0]) is int
        and type(v[1]) in (int, type(None))))],
    "q.rollout.positions": [_at_least(1)], "q.rollout.samples": [_at_least(1)],
    "q.rollout.pairs": [_at_least(1)],
    "q.rollout.metric": [_one_of(ROLLOUT_METRICS)],
    "decode.mode": [_one_of(MODES)], "decode.beam": [_at_least(1)],
    "decode.weight": [_at_least(0)], "decode.length": [_at_least(1)],
    "decode.cap": [_at_least(0)],
    "decode.modes": [_each("a string", lambda v: isinstance(v, str)),
                     _one_of(MODES)],
    "decode.weights": [_each("a finite number", _is_number), _at_least(0)]}


def _check_type(path, value, default):
    if default is None:
        if value is None:
            return
        default = NULLABLE[path]()
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):
        ok = _is_number(value)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        want = type(default).__name__.replace("float", "finite float")
        got = value if isinstance(value, float) else type(value).__name__
        raise ConfigError(f"config key {path!r}: expected {want}, got {got}")
    for check in RULES.get(path, ()):
        for item in value if isinstance(value, list) else [value]:
            if (wrong := check(item)) is not True:
                raise ConfigError(f"config key {path!r}: {wrong}")


def _merge(base, update, default, prefix=""):
    for key, value in update.items():
        path = f"{prefix}{key}"
        if key not in default:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(default[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(
                    f"config key {path!r} is a section: expected object, "
                    f"got {type(value).__name__}")
            _merge(base[key], value, default[key], prefix=path + ".")
        else:
            _check_type(path, value, default[key])
            base[key] = value
    return base


def default_config():
    return json.loads(json.dumps(DEFAULT_CONFIG))


def load_config(path):
    """Parse a JSON config file and merge it over the defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: malformed JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return _merge(default_config(), doc, DEFAULT_CONFIG)


def apply_overrides(config, assignments):
    """Apply ``key.path=value`` overrides in order; values parse as JSON."""
    for text in assignments:
        if "=" not in text:
            raise ConfigError(f"override {text!r} is not of the form key=value")
        key, raw = text.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are a convenience, e.g. task.name=copy
        if isinstance(value, dict):
            raise ConfigError(
                f"config key {key!r}: an override sets one field, not a "
                f"section; set its fields instead")
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(config, value, DEFAULT_CONFIG)
    return config


def write_json(path, doc):
    """Write doc as indented JSON with sorted keys; returns the Path."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def config_hash(config):
    """Hash of the canonical JSON form; reruns of one config share it."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _versions():
    return {"fdq": __version__, "numpy": np.__version__,
            "python": platform.python_version()}


@dataclass
class RunManifest:
    """What a command produced: artifact paths, wall times, logged numbers."""

    command: str
    config_hash: str
    seed: int
    artifacts: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    versions: dict = field(default_factory=_versions)

    def write(self, path):
        # a manifest may only list artifacts that actually exist
        for name, target in self.artifacts.items():
            if not Path(target).exists():
                raise ContractError(
                    f"manifest artifact {name!r} missing on disk: {target}")
        return write_json(path, {
            "command": self.command, "config_hash": self.config_hash,
            "seed": self.seed, "artifacts": self.artifacts,
            "wall_times": self.wall_times, "metrics": self.metrics,
            "versions": self.versions})


@contextmanager
def timed(manifest, phase):
    t0 = time.perf_counter()
    yield
    manifest.wall_times[phase] = round(time.perf_counter() - t0, 3)
