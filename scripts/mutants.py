#!/usr/bin/env python3
"""Run the tier-1 tests against one-line mutants of fockproj's numeric constants.

The tracked tree is copied to a temporary directory once.  Each mutant then
rewrites one line of one module there, the whole test suite runs on it, and
the line is put back.  A mutant is killed when a test fails; the script prints
a kill table with the first failing test of each.  The unmutated copy runs
first and must pass.  One suite run per mutant: this takes minutes.

Run from the repository root: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/fockproj, the exact text of the line to change, its replacement)
MUTANTS = [
    ("PROBABILITY_SLACK x100", "projectors.py", "PROBABILITY_SLACK = 1e-9", "PROBABILITY_SLACK = 1e-7"),
    ("PROBABILITY_SLACK /100", "projectors.py", "PROBABILITY_SLACK = 1e-9", "PROBABILITY_SLACK = 1e-11"),
    ("PRUNE_TOL x100", "fock.py", "PRUNE_TOL = 1e-15", "PRUNE_TOL = 1e-13"),
    ("PRUNE_TOL /100", "fock.py", "PRUNE_TOL = 1e-15", "PRUNE_TOL = 1e-17"),
    ("NORMALIZATION_TOL x100", "fock.py", "NORMALIZATION_TOL = 1e-12", "NORMALIZATION_TOL = 1e-10"),
    ("NORMALIZATION_TOL /100", "fock.py", "NORMALIZATION_TOL = 1e-12", "NORMALIZATION_TOL = 1e-14"),
    ("MONOTONICITY_TOL x100", "analysis.py", "MONOTONICITY_TOL = 1e-9", "MONOTONICITY_TOL = 1e-7"),
    ("MONOTONICITY_TOL /100", "analysis.py", "MONOTONICITY_TOL = 1e-9", "MONOTONICITY_TOL = 1e-11"),
    ("UNITARITY_TOL x100", "transforms.py", "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-10"),
    ("UNITARITY_TOL /100", "transforms.py", "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-14"),
    ("_GAUSSIAN_NODES 17 -> 15", "models.py", "_GAUSSIAN_NODES = 17", "_GAUSSIAN_NODES = 15"),
    ("Gaussian/circle switch 9.0 -> 7.0", "models.py", "sigma_sq < 9.0", "sigma_sq < 7.0"),
    ("_TIE x100", "analysis.py", "_TIE = sys.float_info.epsilon", "_TIE = 100 * sys.float_info.epsilon"),
    ("_TIE 0", "analysis.py", "_TIE = sys.float_info.epsilon", "_TIE = 0.0"),
]


def first_failure(tree: Path) -> str:
    """The first failing test of the suite in `tree`, or "" when every test passes."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rf"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode and not failed:
        return f"pytest exit {proc.returncode}"
    return failed[0] if failed else ""


def main() -> None:
    files = subprocess.run(["git", "ls-files"], cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in files:
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
        if first_failure(tree):
            sys.exit("the unmutated tree fails its tests")
        print(f"{'mutant':<36} {'result':<9} first failing test")
        for name, module, old, new in MUTANTS:
            path = tree / "src" / "fockproj" / module
            source = path.read_text()
            if source.count(old) != 1:
                sys.exit(f"{name}: {old!r} is not one line of {module}")
            path.write_text(source.replace(old, new))
            failure = first_failure(tree)
            path.write_text(source)
            print(f"{name:<36} {'killed' if failure else 'survived':<9} {failure or '-'}", flush=True)


if __name__ == "__main__":
    main()
