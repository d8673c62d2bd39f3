"""The artifact digest harness runs clean and reruns byte-identically;
the quick demo runs clean, every demo imports only names fdq has and
passes only keywords its callables take, src keeps no helper that only
code outside it uses, the line counter reads deltas against a parent, and
the drift tool compares two trees' decode outputs."""

import ast
import importlib
import inspect
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fdq.config import Q_FAMILIES

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "tools" / "artifact_digests.py"


def test_artifact_digests_rerun_identically(tmp_path):
    runs = [subprocess.run([sys.executable, str(HARNESS), str(ROOT),
                            str(tmp_path / name)],
                           capture_output=True, text=True, check=False)
            for name in ("a", "b")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    steps = [step for step, _, _ in runpy.run_path(str(HARNESS))["STEPS"]]
    exited = [line.split("\t")[0] for line in runs[0].stdout.splitlines()
              if line.split("\t")[1] == "stdout (exit 0)"]
    assert exited == steps
    # every key file the made-from rule writes is digested
    files = {line.split("\t")[1] for line in runs[0].stdout.splitlines()}
    keys = ["forward.fdq", "backward.fdq", "rollouts.ndjson",
            *(f"q_{family}.fdq" for family in Q_FAMILIES)]
    assert {f"run/{name}.key" for name in keys} <= files


def test_gradcheck_demo_runs():
    # the other demos train models for 10-20 s each and are run by hand
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_gradcheck_and_oracle.py")],
        capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0, proc.stderr


def demo_faults(source):
    """The fdq names source imports and fdq lacks, and the keywords it
    passes to an fdq callable (imported, or read off an imported fdq
    module) that the callable's signature does not take."""
    tree = ast.parse(source)
    bound, faults = {}, []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "fdq"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module,
                                                                alias.name)
                else:
                    faults.append(f"{node.module}.{alias.name}")
    assert bound or faults, "imports nothing from fdq"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, name = node.func, ast.unparse(node.func)
        if isinstance(func, ast.Name):
            target = bound.get(func.id)
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and inspect.ismodule(bound.get(func.value.id))):
            target = getattr(bound[func.value.id], func.attr, None)
            if target is None:
                faults.append(name)
        else:
            continue
        if target is None or not callable(target):
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        faults += [f"{name}({kw.arg}=)" for kw in node.keywords
                   if kw.arg is not None and kw.arg not in params]
    return faults


@pytest.mark.parametrize("demo", sorted(
    p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(demo):
    # the slow demos are run by hand, so a name or keyword a refactor
    # removes from fdq would break them unseen; this parses them and runs
    # nothing
    assert demo_faults((ROOT / "demos" / demo).read_text(
        encoding="utf-8")) == []


def test_demo_check_finds_a_removed_keyword():
    source = (ROOT / "demos" / "02_length_control.py").read_text(
        encoding="utf-8")
    broken = source.replace("hidden=48,", "hidden=48, attention=False,", 1)
    assert broken != source
    assert demo_faults(broken) == ["Seq2Seq(attention=)"]


# the module-level functions and classes src/fdq keeps though no src module
# uses them, each with the callers outside src it is kept for
UNUSED_IN_SRC = {
    "mul": "criterion 1 and demo 01 compose losses with it",
    "CallableScorer": "the tests and demo 01 adapt plain functions with it",
    "exact_length_rate": "fdqbench's exact_len_rate quality metric",
    "exhaustive_decode": "criterion 2 and demo 01 check search against it; "
                         "decode_corpus runs the same search itself",
}


def test_src_keeps_no_helper_src_does_not_use():
    # a name counts as used when a src module reads it as a name, imports
    # it, or reads it as an attribute of anything but numpy
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fdq").rglob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "np"):
            used.add(node.attr)
    assert defined - used == set(UNUSED_IN_SRC)


def test_src_lines_reads_each_delta_against_a_parent(tmp_path, capsys):
    main = runpy.run_path(str(ROOT / "tools" / "src_lines.py"))["main"]

    def table(change, parent):
        assert main(["src_lines.py", str(change), str(parent)]) == 0
        rows = [line.split("\t") for line in
                capsys.readouterr().out.splitlines()]
        return {name: tuple(map(int, cols)) for name, *cols in rows}

    same = table(ROOT, ROOT)
    assert "cli.py" in same and "total" in same
    assert all(delta == 0 and was == now
               for was, now, delta in same.values())
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src")
    path = change / "src" / "fdq" / "cli.py"
    kept = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()][:-3]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    moved = table(change, ROOT)
    was = same["cli.py"][0]
    assert moved["cli.py"] == (was, was - 3, -3)
    assert moved["total"][2] == -3
    assert all(moved[name] == same[name] for name in same
               if name not in ("cli.py", "total"))


def test_decode_drift_reads_tokens_and_float_deltas(tmp_path, capsys):
    main = runpy.run_path(str(ROOT / "tools" / "decode_drift.py"))["main"]

    def write(root, step, recs):
        path = root / "steps" / step / "decode.ndjson"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(r) + "\n" for r in recs),
                        encoding="utf-8")

    def rec(hyp, logp, q_term):
        return {"id": 0, "hyp": hyp, "logp": logp, "q_term": q_term,
                "combined": logp + q_term}

    error = {"id": 1, "error": "ContractError: scorer returned a NaN"}
    write(tmp_path / "old", "a", [rec("x y", -1.0, -0.5), error])
    write(tmp_path / "new", "a", [rec("x y", -1.0, -0.5 + 4e-6), error])
    write(tmp_path / "old", "b", [rec("x", -2.0, 0.0)])
    write(tmp_path / "new", "b", [rec("y", -2.0, 0.0)])
    write(tmp_path / "old", "c", [rec("x", -2.0, 0.0)])
    # equal tokens, but a float moved past BATCH_ATOL (1e-5)
    write(tmp_path / "old", "d", [rec("x", -2.0, -0.5)])
    write(tmp_path / "new", "d", [rec("x", -2.0, -0.25)])
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "steps/a/decode.ndjson\ttokens equal\tlogp 0\tq_term 4e-06\t"
        "combined 4e-06",
        "steps/b/decode.ndjson\ttokens differ\tlogp 0\tq_term 0\t"
        "combined 0",
        "steps/c/decode.ndjson\tmissing",
        "steps/d/decode.ndjson\ttokens equal\tlogp 0\tq_term 0.25\t"
        "combined 0.25\tover BATCH_ATOL"]
    assert main([str(tmp_path / "old" / "steps" / "a"),
                 str(tmp_path / "new" / "steps" / "a")]) == 0
    assert main([str(tmp_path / "old" / "steps" / "d"),
                 str(tmp_path / "new" / "steps" / "d")]) == 1
