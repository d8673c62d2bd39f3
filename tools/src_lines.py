"""Count the non-blank lines of each module under src/fdq.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR is a source tree (default: this repository). Prints one
tab-separated line per module (path under src/fdq, count), sorted by
path, and a last line with the total.
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
    for name, n in table.items():
        print(f"{name}\t{n}")
    print(f"total\t{sum(table.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
