#!/usr/bin/env python3
"""Run the tier-1 tests against one-line mutants of fockproj's numeric constants and rules.

The tracked tree is copied to a temporary directory once.  Each mutant then
rewrites one line of one module there, its tests run on it, and the line is put
back.  A mutant that names the test written for it runs that test alone first:
the table reports "own test: killed" or "survived", and a survivor's whole suite
runs next.  A mutant that names no test runs the whole suite.  A mutant is
killed when a test fails; the table gives the first failing test of each.  The
unmutated copy runs first and must pass.  This takes minutes.  The exit status
is 1 when a mutant survives, or when its own test does, so that CI can run it as
a gate.  A pytest run that ends in exit 2 to 5 (interrupted, an internal error, a
usage error such as a named test that does not exist, or no test collected)
killed nothing: it stops the script with an error that names the mutant.

Five one-line mutants are left out because they are equivalent, so no test can
kill them:
- `_loss_turns` with `-1.0 <= vertex <= 1.0` -> `<`: a vertex of +-1 gives
  acos 0 or pi, which the walk of `analysis._extrema` never reads, as it takes
  only points strictly inside (0, pi/2);
- `_same_cells` with `r < 1e12` -> `<=`: r == 1e12 means that both numbers
  print as the next power of ten, so the cells are the same either way;
- `scenario_curve` never skipping a plane (`a.imag.any()` -> `True`, or the
  same for `c`): a product of an all-zero plane is an exact +-0, whose sign
  squaring erases, so the skip changes speed only;
- `scenario_curve` with its sums started from `0.0`, not from the first member
  (`total, overlaps = 0.0, 0.0`, every member added): `0.0 + x` is `x` for every
  sum of squares `x >= +0`, so only the speed changes;
- `scenario_curve` with `+ 0.0` kept when `A c` is real (`re**2 + im**2` with
  `im` the scalar `0.0`): `x + 0.0` is `x` for `x = re**2 >= +0`, so again only
  the speed changes.

Run from the repository root: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/fockproj
    old: str  # the exact text of the line to change
    new: str  # its replacement
    test: Optional[str] = None  # the test written to kill it, as a pytest node id


_CLI, _PROJECTORS, _ANALYSIS = "tests/test_cli.py::", "tests/test_projectors.py::", "tests/test_analysis.py::"
_MODELS, _TRANSFORMS = "tests/test_models.py::", "tests/test_transforms.py::"

MUTANTS = [
    Mutant("PROBABILITY_SLACK x100", "projectors.py", "PROBABILITY_SLACK = 1e-9", "PROBABILITY_SLACK = 1e-7",
           _PROJECTORS + "test_the_range_guard_passes_rounding_above_one_and_no_more"),
    Mutant("PROBABILITY_SLACK /100", "projectors.py", "PROBABILITY_SLACK = 1e-9", "PROBABILITY_SLACK = 1e-11",
           _PROJECTORS + "test_the_range_guard_passes_rounding_above_one_and_no_more"),
    Mutant("PRUNE_TOL x100", "fock.py", "PRUNE_TOL = 1e-15", "PRUNE_TOL = 1e-13",
           "tests/test_fock.py::test_amplitude_pruning_drops_tiny_terms"),
    Mutant("PRUNE_TOL /100", "fock.py", "PRUNE_TOL = 1e-15", "PRUNE_TOL = 1e-17",
           "tests/test_fock.py::test_amplitude_pruning_drops_tiny_terms"),
    Mutant("NORMALIZATION_TOL x100", "fock.py", "NORMALIZATION_TOL = 1e-12", "NORMALIZATION_TOL = 1e-10",
           _PROJECTORS + "test_measurements_share_one_normalization_rule"),
    Mutant("NORMALIZATION_TOL /100", "fock.py", "NORMALIZATION_TOL = 1e-12", "NORMALIZATION_TOL = 1e-14",
           _PROJECTORS + "test_measurements_share_one_normalization_rule"),
    Mutant("MONOTONICITY_TOL x100", "analysis.py", "MONOTONICITY_TOL = 1e-9", "MONOTONICITY_TOL = 1e-7",
           _ANALYSIS + "test_classify_monotonicity_tolerance_absorbs_noise"),
    Mutant("MONOTONICITY_TOL /100", "analysis.py", "MONOTONICITY_TOL = 1e-9", "MONOTONICITY_TOL = 1e-11",
           _ANALYSIS + "test_classify_monotonicity_tolerance_absorbs_noise"),
    Mutant("UNITARITY_TOL x100", "transforms.py", "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-10",
           _TRANSFORMS + "test_mode_unitary_tolerance_sits_between_1e_13_and_1e_11"),
    Mutant("UNITARITY_TOL /100", "transforms.py", "UNITARITY_TOL = 1e-12", "UNITARITY_TOL = 1e-14",
           _TRANSFORMS + "test_mode_unitary_tolerance_sits_between_1e_13_and_1e_11"),
    Mutant("_GAUSSIAN_NODES 17 -> 15", "models.py", "_GAUSSIAN_NODES = 17", "_GAUSSIAN_NODES = 15",
           _MODELS + "test_phase_noise_gaussian_first_moment_on_a_dense_grid"),
    Mutant("Gaussian/circle switch 3.0 -> 5.0", "models.py", "sigma_sq < 3.0", "sigma_sq < 5.0",
           _MODELS + "test_phase_noise_gaussian_first_moment_on_a_dense_grid"),
    Mutant("_TIE x100", "analysis.py", "_TIE = sys.float_info.epsilon", "_TIE = 100 * sys.float_info.epsilon",
           _ANALYSIS + "test_a_stationary_value_lower_by_more_than_rounding_beats_a_lower_gamma"),
    Mutant("_TIE 0", "analysis.py", "_TIE = sys.float_info.epsilon", "_TIE = 0.0",
           _ANALYSIS + "test_roots_a_thousandth_apart_are_not_merged"),
    Mutant("_same_cells 0.49 -> 0.51", "cli.py", "< 0.49) & (np.abs(yb - r) < 0.49)",
           "< 0.51) & (np.abs(yb - r) < 0.51)", _CLI + "test_every_cell_is_the_cell_of_its_sweep_value"),
    Mutant("_same_cells without the sign test", "cli.py", "return (np.signbit(a) == np.signbit(b)) & (",
           "return (", _CLI + "test_zeros_subnormals_non_finite_and_opposite_signs_are_formatted_apart"),
    Mutant("_scan > tol -> >=", "analysis.py", "np.abs(diffs) > MONOTONICITY_TOL",
           "np.abs(diffs) >= MONOTONICITY_TOL", _ANALYSIS + "test_verdict_of_step_signs"),
    Mutant("walk 0.0 < g -> <=", "analysis.py", "if 0.0 < g < GAMMA_MAX]", "if 0.0 <= g < GAMMA_MAX]",
           _ANALYSIS + "test_the_ends_are_never_extrema"),
    Mutant("walk g < GAMMA_MAX -> <=", "analysis.py", "if 0.0 < g < GAMMA_MAX]", "if 0.0 < g <= GAMMA_MAX]",
           _ANALYSIS + "test_the_ends_are_never_extrema"),
    Mutant("grid end not pinned", "analysis.py", "grid[-1] = GAMMA_MAX", "grid[-1] += 0.0",
           _ANALYSIS + "test_every_grid_ends_at_pi_over_2_exactly"),
    Mutant("classical turns k -2..2 -> -1..1", "models.py", "for k in range(-2, 3)", "for k in range(-1, 2)",
           _ANALYSIS + "test_every_bracket_yields_one_extremum_strictly_inside"),
    Mutant("range guard >= lo -> > lo", "projectors.py", "values.min(initial=0.0) >= lo",
           "values.min(initial=0.0) > lo", _PROJECTORS + "test_the_range_guard_passes_exactly_the_slack_at_either_end"),
    Mutant("prune <= PRUNE_TOL -> <", "projectors.py", "c[np.abs(c) <= fock.PRUNE_TOL]",
           "c[np.abs(c) < fock.PRUNE_TOL]", _PROJECTORS + "test_the_prune_drops_a_coefficient_of_exactly_its_tolerance"),
    Mutant("A's imaginary plane taken as zero", "projectors.py", "a.imag.any()", "False",
           _PROJECTORS + "test_skipping_zero_planes_keeps_every_byte_of_the_four_product_curve"),
    Mutant("c's imaginary plane taken as zero", "projectors.py", "np.iscomplexobj(c) and c.imag.any()", "False",
           _PROJECTORS + "test_skipping_zero_planes_keeps_every_byte_of_the_four_product_curve"),
    Mutant("overlap row not copied", "projectors.py", "squares[-1].copy()", "squares[-1]",
           _ANALYSIS + "test_every_column_of_a_sweep_is_read_only"),
    Mutant("format split at \\n, not by line", "cli.py", "% tuple(values)).splitlines()",
           '% tuple(values)).split("\\n")', _CLI + "test_one_format_operation_gives_the_cell_of_each_value"),
    Mutant("AMPLITUDE ceiling 2e77 -> 3e77", "models.py", '5e-77, 2e77, "[', '5e-77, 3e77, "[',
           _CLI + "test_the_amplitude_range_is_5e_77_to_2e77"),
    Mutant("AMPLITUDE floor 5e-77 -> 4e-77", "models.py", '5e-77, 2e77, "[', '4e-77, 2e77, "[',
           _CLI + "test_the_amplitude_range_is_5e_77_to_2e77"),
    Mutant("AMPLITUDE floor 5e-77 -> 6e-77", "models.py", '5e-77, 2e77, "[', '6e-77, 2e77, "[',
           _CLI + "test_the_amplitude_range_is_5e_77_to_2e77"),
    Mutant("MAX_STEPS 100_001 -> 100_002", "analysis.py", "MAX_STEPS = 100_001", "MAX_STEPS = 100_002",
           _CLI + "test_the_grid_cap_is_100001_points"),
    Mutant("MAX_STEPS 100_001 -> 100_000", "analysis.py", "MAX_STEPS = 100_001", "MAX_STEPS = 100_000",
           _CLI + "test_the_grid_cap_is_100001_points"),
]


def first_failure(tree: Path, *tests: str) -> str:
    """The first failing test of `tests` (default: the whole suite) in `tree`, or "" when
    every test passes; RuntimeError when pytest ends in exit 2 to 5."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rf", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if 2 <= proc.returncode <= 5:  # interrupted, internal error, usage error (a test not found), none run
        detail = proc.stderr.strip().splitlines()[:1] or proc.stdout.strip().splitlines()[-1:]
        raise RuntimeError(f"pytest exit {proc.returncode}: {''.join(detail)}")
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode and not failed:
        return f"pytest exit {proc.returncode}"
    return failed[0] if failed else ""


def main() -> None:
    files = subprocess.run(["git", "ls-files"], cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in (f for f in files if (ROOT / f).is_file()):  # skip tracked files deleted here
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
        try:
            if first_failure(tree):
                sys.exit("the unmutated tree fails its tests")
        except RuntimeError as error:
            sys.exit(f"the unmutated tree: {error}")
        print(f"{'mutant':<36} {'result':<9} {'own test':<9} first failing test")
        survivors = own_survivors = 0
        for mutant in MUTANTS:
            path = tree / "src" / "fockproj" / mutant.module
            source = path.read_text()
            if source.count(mutant.old) != 1:
                sys.exit(f"{mutant.name}: {mutant.old!r} is not one line of {mutant.module}")
            path.write_text(source.replace(mutant.old, mutant.new))
            try:
                failure = own = first_failure(tree, mutant.test) if mutant.test else ""
                if not own:  # no test of its own, or one that let it live: the whole suite
                    failure = first_failure(tree)
            except RuntimeError as error:  # a test that cannot run has killed nothing
                sys.exit(f"{mutant.name}: {error}")
            path.write_text(source)
            own_result = "-" if not mutant.test else "killed" if own else "survived"
            print(f"{mutant.name:<36} {'killed' if failure else 'survived':<9} {own_result:<9} "
                  f"{failure or '-'}", flush=True)
            survivors += not failure
            own_survivors += bool(mutant.test) and not own
    if survivors or own_survivors:
        sys.exit(f"{survivors} of {len(MUTANTS)} mutants survived; "
                 f"{own_survivors} survived the test written for them")


if __name__ == "__main__":
    main()
