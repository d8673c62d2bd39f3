"""Compare the decode outputs of two output trees, record by record.

    python3 tools/decode_drift.py OLD_OUT NEW_OUT

For every decode.ndjson under OLD_OUT, in path order, and the file at the
same relative path under NEW_OUT, prints one tab-separated line: the
path, `tokens equal` or `tokens differ` (each record's `hyp`, or its
error text, compared line by line), the largest |new - old| of `logp`,
`q_term` and `combined` over the records both decoded, and `over
BATCH_ATOL` if any of them exceeds fdq.decode.BATCH_ATOL, the float drift
batching may cause.  A file NEW_OUT lacks prints `missing`.
tools/artifact_digests.py keeps each decode step's output as
OUT_DIR/steps/<step>/decode.ndjson, so two of its output trees compare
step by step.  Exits 1 if any tokens differ, a float moves past
BATCH_ATOL or a file is missing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from fdq.decode import BATCH_ATOL  # noqa: E402

FIELDS = ("logp", "q_term", "combined")


def records(path):
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


def drift(old, new):
    """(tokens equal, {field: max |new - old|}) of two decode outputs."""
    equal = len(old) == len(new) and all(
        a.get("hyp", a.get("error")) == b.get("hyp", b.get("error"))
        for a, b in zip(old, new))
    both = [(a, b) for a, b in zip(old, new) if "hyp" in a and "hyp" in b]
    return equal, {f: max((abs(b[f] - a[f]) for a, b in both), default=0.0)
                   for f in FIELDS}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old_root, new_root = map(Path, argv)
    bad = 0
    for old in sorted(old_root.rglob("decode.ndjson")):
        rel = old.relative_to(old_root)
        new = new_root / rel
        if not new.is_file():
            bad += 1
            print(f"{rel.as_posix()}\tmissing")
            continue
        equal, deltas = drift(records(old), records(new))
        over = max(deltas.values()) > BATCH_ATOL
        bad += not equal or over
        print("\t".join([rel.as_posix(),
                         "tokens equal" if equal else "tokens differ",
                         *(f"{f} {d:.3g}" for f, d in deltas.items()),
                         *(["over BATCH_ATOL"] if over else [])]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
