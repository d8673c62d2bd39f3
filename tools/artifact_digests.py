"""Digest every artifact and the stdout of a seeded CLI pipeline.

    python3 tools/artifact_digests.py SRC_DIR OUT_DIR

Runs the `fdq` CLI from SRC_DIR/src inside OUT_DIR (created if absent):
train, train-q for all four Q families, decode in every mode, eval and
compare, and last an exhaustive decode capped at 3 tokens, on a small
copy task with seed 1.  After each step it prints one
tab-separated line per file the step wrote (step, file, sha256) and one
for the step's stdout.  For a decode output it also prints the sha256 of
its `hyp` strings alone (file `decode.ndjson#hyp`), so a change that moves
only score floats shows equal token digests, and keeps a copy of it as
OUT_DIR/steps/<step>/decode.ndjson for tools/decode_drift.py.  Run it at
two source trees into two fresh directories and diff the outputs: equal
lines mean equal bytes.

Before hashing, manifests drop `wall_times` and the decode stats'
`total_ms`, and the absolute OUT_DIR prefix is removed from every file.
Every command uses the same relative `--out`, because `out` enters
`config_hash`.  BLAS and OpenMP run single-threaded so the digests do not
depend on the core count.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

CONFIG = {
    "task": {"name": "copy", "vocab": 6, "min_len": 1, "max_len": 5,
             "pairs": 200},
    "model": {"hidden": 24, "max_len": 8},
    "train": {"epochs": 8, "lr": 5e-3},
    "q": {"family": "backward_opt1", "hidden": 16, "epochs": 10,
          "backward": {"hidden": 16, "epochs": 5},
          "buckets": [[1, 2], [3, None]],
          "rollout": {"positions": 2, "samples": 2, "pairs": 30}},
    "decode": {"beam": 5, "weight": 0.5,
               "modes": ["length_q", "mmi_q", "outcome_q"],
               "weights": [0.0, 1.0]},
}

# (step, command, --set overrides); mmi_q with the option-1 head runs
# before the option-2 ensemble exists, so the step decodes the same way
# whichever rule picks mmi_q's estimator
STEPS = [
    ("train", "train", []),
    ("train-q length", "train-q", ["q.family=length"]),
    ("decode sbs", "decode", []),
    ("decode sbs protocol", "decode", ["decode.use_length_protocol=true"]),
    ("decode length_q", "decode", ["decode.mode=length_q"]),
    ("decode length_q unmasked", "decode",
     ["decode.mode=length_q", "decode.mask_eos=false"]),
    # beam 1 at L=1 leaves most pairs with no admitted EOS, so the
    # protocol's fallback (first finisher wins) decides them
    ("decode length_q fallback", "decode",
     ["decode.mode=length_q", "decode.beam=1", "decode.length=1"]),
    ("eval", "eval", []),
    ("train-q backward_opt1", "train-q", []),
    ("decode mmi_q opt1", "decode", ["decode.mode=mmi_q"]),
    ("decode mmi_rerank", "decode", ["decode.mode=mmi_rerank"]),
    ("train-q backward_opt2", "train-q", ["q.family=backward_opt2"]),
    ("decode mmi_q opt2", "decode",
     ["decode.mode=mmi_q", "q.family=backward_opt2"]),
    ("train-q outcome", "train-q", ["q.family=outcome"]),
    ("train-q outcome reuse", "train-q", ["q.family=outcome"]),
    ("decode outcome_q", "decode", ["decode.mode=outcome_q"]),
    ("compare", "compare", ["q.family=backward_opt2"]),
    ("decode exhaustive", "decode", ["decode.mode=exhaustive", "decode.cap=3"]),
]

RUN = "run"


def normalized(path, prefix):
    data = path.read_bytes().replace(prefix, b"")
    if path.name.endswith(".manifest.json"):
        doc = json.loads(data)
        doc.pop("wall_times", None)
        doc["metrics"].pop("total_ms", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    return data


def hyp_digest(path):
    """sha256 of the decoded strings, one line per record (error text if any)."""
    lines = [rec.get("hyp", rec.get("error")) for rec in
             map(json.loads, path.read_text(encoding="utf-8").splitlines())]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def stamps(out):
    return {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / "exp.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    prefix = (str(out) + os.sep).encode("utf-8")
    failed = 0
    for step, command, sets in STEPS:
        before = stamps(out / RUN) if (out / RUN).exists() else {}
        argv_step = [sys.executable, "-m", "fdq.cli", command,
                     "--config", "exp.json", "--out", RUN, "--seed", "1"]
        for item in sets:
            argv_step += ["--set", item]
        proc = subprocess.run(argv_step, cwd=out, env=env,
                              capture_output=True, check=False)
        if proc.returncode != 0:
            failed += 1
            print(proc.stderr.decode("utf-8", "replace"), file=sys.stderr)
        for path, stamp in sorted(stamps(out / RUN).items()):
            if before.get(path) != stamp:
                digest = hashlib.sha256(normalized(path, prefix)).hexdigest()
                print(f"{step}\t{path.relative_to(out)}\t{digest}")
                if path.name == "decode.ndjson":
                    print(f"{step}\t{path.relative_to(out)}#hyp\t"
                          f"{hyp_digest(path)}")
                    kept = out / "steps" / step.replace(" ", "_")
                    kept.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, kept / path.name)
        stdout = proc.stdout.replace(prefix, b"")
        print(f"{step}\tstdout (exit {proc.returncode})\t"
              f"{hashlib.sha256(stdout).hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
