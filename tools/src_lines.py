"""Count the non-blank lines of each module under src/fdq.

    python3 tools/src_lines.py [SRC_DIR [PARENT_DIR]]

SRC_DIR is a source tree (default: this repository). Prints one
tab-separated line per module (path under src/fdq, count), sorted by
path, and a last line with the total. Given a second tree PARENT_DIR,
each line holds the parent's count, SRC_DIR's count and the signed
delta instead; a module only one tree has counts 0 in the other.
"""

import sys
from pathlib import Path


def counts(root):
    """{module path under src/fdq: non-blank line count}."""
    pkg = Path(root) / "src" / "fdq"
    return {path.relative_to(pkg).as_posix():
            sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip())
            for path in sorted(pkg.rglob("*.py"))}


def main(argv):
    root = argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]
    table = counts(root)
    if len(argv) > 2:
        parent = counts(argv[2])
        table = {name: (parent.get(name, 0), table.get(name, 0))
                 for name in sorted({*parent, *table})}
        table["total"] = tuple(sum(col) for col in zip(*table.values()))
        for name, (was, now) in table.items():
            print(f"{name}\t{was}\t{now}\t{now - was:+d}")
        return 0
    for name, n in table.items():
        print(f"{name}\t{n}")
    print(f"total\t{sum(table.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
