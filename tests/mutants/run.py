"""Check that the tests still kill the committed mutants of divrel.

Usage (from anywhere in the repository):

    python tests/mutants/run.py [--all-tests] [NAME ...]

Each mutant in mutants.json names a file, a text that occurs exactly once
in it, the text's replacement, and the pytest node ids expected to kill it.
The tracked files (git ls-files, as they are in the working tree; outside
a git checkout, every file but .git and the caches) are copied once to a
temporary directory.  The mutants are then taken one at a time: the
mutant is applied to the copy, its node ids are run there with pytest, and
the file is restored.  NAME picks mutants by name; the default is all of
them.

The script exits 1 when a mutant's text does not occur exactly once, when
its replacement does not compile, when a listed test fails on the copy
without any mutant, or when a listed test passes on its mutant.  A mutant
that no listed test kills survives.

--all-tests runs the whole suite against each picked mutant instead, and
prints every test that kills it: that is how a new mutant's list is made.

Not part of the tier-1 suite, since it runs tests many times; pytest does
not collect this directory's files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Skipped when the tree is listed without git.
UNTRACKED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def tracked_files() -> list[str]:
    """git ls-files; outside a git checkout, every file not under UNTRACKED."""
    try:
        out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        names = (path.relative_to(ROOT) for path in ROOT.rglob("*") if path.is_file())
        return [str(name) for name in names if UNTRACKED.isdisjoint(name.parts)]
    return [name for name in out.decode().split("\0") if name]


def copy_tree(dest: Path) -> None:
    for name in tracked_files():
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def mutate(mutant: dict, text: str) -> str:
    """text with the mutant applied; ValueError unless its find text occurs
    exactly once and, in a Python file, the result compiles."""
    found = text.count(mutant["find"])
    if found != 1:
        raise ValueError(f"its text occurs {found} times in {mutant['file']}")
    mutated = text.replace(mutant["find"], mutant["replace"])
    if mutant["file"].endswith(".py"):
        try:
            compile(mutated, mutant["file"], "exec")
        except SyntaxError as exc:
            raise ValueError(f"its replacement does not compile: {exc}") from None
    return mutated


def run_pytest(tree: Path, ids: list[str]) -> tuple[int, list[str]]:
    """pytest's exit code on ids in tree (the whole suite for no ids), and
    the node ids it reports failed or in error."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", COLUMNS="400")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [
        line.split(" ", 1)[1].partition(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode, failed


def killed_by(listed: str, failed: list[str]) -> bool:
    """Whether the listed node id failed: itself, one of its parameter
    cases, or its whole module (an error while collecting it)."""
    return any(f == listed or f.startswith(listed + "[") or listed.startswith(f + "::") for f in failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--all-tests", action="store_true", help="run the whole suite per mutant")
    args = parser.parse_args(argv)
    mutants = json.loads((HERE / "mutants.json").read_text())
    if unknown := set(args.names) - {m["name"] for m in mutants}:
        parser.error(f"unknown mutant names: {', '.join(sorted(unknown))}")
    picked = [m for m in mutants if not args.names or m["name"] in args.names]

    problems = []
    for m in picked:  # every text is checked before any test runs
        try:
            mutate(m, (ROOT / m["file"]).read_text())
        except (ValueError, OSError) as exc:
            problems.append(f"{m['name']}: {exc}")
    if problems:
        print("\n".join(problems))
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="divrel-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if not args.all_tests:
            ids = sorted({i for m in picked for i in m["kills"]})
            code, failed = run_pytest(tree, ids)
            if code != 0:
                print(f"the listed tests fail without a mutant (pytest exit {code}):", *failed, sep="\n  ")
                return 1
        for m in picked:
            path = tree / m["file"]
            original = path.read_text()
            path.write_text(mutate(m, original))
            t0 = time.perf_counter()
            try:
                code, failed = run_pytest(tree, [] if args.all_tests else m["kills"])
            finally:
                path.write_text(original)
            seconds = time.perf_counter() - t0
            if args.all_tests:
                verdict = "killed" if failed else f"survived (pytest exit {code})"
                print(f"{m['name']}: {verdict} in {seconds:.1f} s", *failed, sep="\n  ")
                continue
            passed = [i for i in m["kills"] if not killed_by(i, failed)]
            if len(passed) == len(m["kills"]):
                verdict = f"survived (pytest exit {code})"
            else:
                verdict = "killed" + "".join(f"; passed: {i}" for i in passed)
            if passed:
                problems.append(f"{m['name']}: {verdict}")
            print(f"{m['name']}: {verdict} in {seconds:.1f} s")
    print(f"{len(picked)} mutants in {time.perf_counter() - start:.0f} s")
    if problems:
        print("\n".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
