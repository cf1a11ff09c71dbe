import contextlib
import dataclasses
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockproj import DetectorModel, ProjectorAngles, analysis, cli, models
from fockproj.models import ScenarioId
from fockproj.projectors import ProbabilityRangeError


def _run_capture(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_minimal_config():
    config = cli.parse_args(["--scenario", "hom4-coincidence", "--steps", "101", "--format", "csv"])
    assert config.scenario is ScenarioId.HOM4_COINCIDENCE
    assert config.steps == 101
    assert config.format == "csv"
    assert config.params == {}


def test_parse_fills_in_the_checked_defaults():
    config = cli.parse_args(["--scenario", "classical-polarization", "--theta2", "0.5"])
    assert config.params == {"theta1": 0.0, "theta2": 0.5, "amplitude": 2.0}
    assert cli.parse_args(["--scenario", "hofmann-cascade"]).params == {"eta": 1.0}


def test_parse_angle_values():
    config = cli.parse_args(
        ["--scenario", "single-deliberate", "--beta", "0.3927", "--theta", "3.1416"]
    )
    assert abs(config.beta - math.pi / 8) < 1e-3
    assert abs(config.theta - math.pi) < 1e-3
    assert config.params == {"beta": 0.3927, "theta": 3.1416}


def test_missing_beta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "single-deliberate"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--beta" in capsys.readouterr().err


def test_missing_theta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "single-loss", "--beta", "0.4"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--theta" in capsys.readouterr().err


def test_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "bogus"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--scenario" in capsys.readouterr().err


def test_out_of_range_eta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "hofmann-cascade", "--eta", "1.2"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--eta" in capsys.readouterr().err


def test_too_few_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "hom2", "--steps", "2"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--steps" in capsys.readouterr().err


def test_too_many_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--scenario", "hom2", "--steps", str(analysis.MAX_STEPS + 1)])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--steps" in err


@pytest.mark.parametrize(
    "scenario,angle,message",
    [
        (ScenarioId.SINGLE_DELIBERATE, {"beta": 0.3}, "theta is required"),
        (ScenarioId.SINGLE_DELIBERATE, {"theta": 0.3}, "beta is required"),
        (ScenarioId.HOM2, {"beta": 0.3}, "beta is not used"),
    ],
)
def test_lone_projector_angle_is_named_by_parse_args(scenario, angle, message, capsys):
    argv = ["--scenario", scenario.value] + [f"--{name}={value}" for name, value in angle.items()]
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"--{message}" in err


def test_hom2_csv_output(capsys):
    code, out, _ = _run_capture(["--scenario", "hom2"], capsys)
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,probability,closed_form,indistinguishability"
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 1 + 101
    last = data[-1].split(",")
    assert last[1] == "0.5"
    assert "# verdict,NonDecreasing" in lines
    assert "# extrema,none" in lines


def test_csv_output_is_deterministic(capsys):
    argv = ["--scenario", "hom4-coincidence", "--steps", "51"]
    _, first, _ = _run_capture(argv, capsys)
    _, second, _ = _run_capture(argv, capsys)
    assert first == second


def test_cascade_first_row_is_quarter(capsys):
    code, out, _ = _run_capture(["--scenario", "hofmann-cascade"], capsys)
    assert code == cli.EXIT_OK
    first_row = out.strip().split("\n")[1].split(",")
    assert first_row[0] == "0"
    assert first_row[1] == "0.25"
    assert "# eta,1" in out


def test_classical_verdict_in_footer(capsys):
    code, out, _ = _run_capture(
        ["--scenario", "classical-polarization", "--theta1", "0", "--theta2", "0.7853981633974483"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert "# verdict,NonMonotonic" in out
    # intensity column, so no indistinguishability values
    first_row = out.strip().split("\n")[1]
    assert first_row.endswith(",")


def test_json_output_mirrors_sweep_fields(capsys):
    code, out, _ = _run_capture(
        ["--scenario", "single-phase-noise", "--beta", "0.3927", "--theta", "3.1416",
         "--steps", "11", "--format", "json"],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["scenario"] == "single-phase-noise"
    assert payload["steps"] == 11
    assert len(payload["gammas"]) == 11
    assert len(payload["probabilities"]) == 11
    assert payload["verdict"] in {"NonIncreasing", "NonDecreasing", "Constant"}
    assert payload["params"]["beta"] == pytest.approx(0.3927)
    assert payload["max_closed_form_deviation"] < 1e-10
    assert payload["extrema"] == []


def test_largest_amplitude_gives_a_finite_table_and_its_peak(capsys):
    # (E0/2)^4 = 1e308, the largest intensity: its tie width and its peak must stay finite
    code, out, _ = _run_capture(
        ["--scenario", "classical-polarization", "--amplitude", "2e77", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    assert all(math.isfinite(v) for v in payload["probabilities"] + payload["closed_forms"])
    (peak,) = payload["extrema"]
    assert peak["kind"] == "Max" and math.isfinite(peak["value"])
    assert abs(peak["gamma"] - math.pi / 8) < 1e-12


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = _run_capture(
        ["--scenario", "hom2", "--steps", "11", "--output", str(target)], capsys
    )
    assert code == cli.EXIT_OK
    assert out == ""
    text = target.read_text()
    assert text.startswith("gamma,probability")
    assert "# scenario,hom2" in text


def test_failed_replace_keeps_the_old_output_and_no_temp_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "sweep.csv"
    target.write_text("old table\n")
    argv = ["--scenario", "hom2", "--steps", "11", "--output", str(target)]

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = _run_capture(argv, capsys)
    assert code == cli.EXIT_IO
    assert out == ""
    assert len(err.splitlines()) == 1 and "cannot write" in err
    assert target.read_text() == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
    monkeypatch.undo()
    assert _run_capture(argv, capsys)[0] == cli.EXIT_OK
    assert target.read_text().startswith("gamma,probability")
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_a_killed_runs_temp_file_does_not_block_a_later_write(tmp_path, capsys):
    # a run killed before its replace leaves its temp file; a later run under the same pid
    # writes anyway, and leaves the leftover, which is not its own, as it was
    target = tmp_path / "sweep.csv"
    stale = tmp_path / f"sweep.csv.{os.getpid()}.tmp"
    stale.write_text("partial table\n")
    code, out, err = _run_capture(["--scenario", "hom2", "--steps", "3", "--output", str(target)],
                                  capsys)
    assert (code, out, err) == (cli.EXIT_OK, "", "")
    assert target.read_text().startswith("gamma,probability")
    assert stale.read_text() == "partial table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", stale.name]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604], ids=oct)
def test_a_replaced_table_keeps_its_permissions(mode, tmp_path, monkeypatch, capsys):
    target = tmp_path / "sweep.csv"
    target.write_text("old table\n")
    target.chmod(mode)
    seen, chmod = [], os.chmod  # the temp file's mode while it holds the table, before the chmod

    def spy(name, *args, **kwargs):
        seen.append(stat.S_IMODE(os.stat(name).st_mode))
        return chmod(name, *args, **kwargs)

    monkeypatch.setattr(os, "chmod", spy)
    code = _run_capture(["--scenario", "hom2", "--steps", "3", "--output", str(target)], capsys)[0]
    assert code == cli.EXIT_OK
    assert seen and not any(m & ~mode for m in seen)
    assert target.read_text().startswith("gamma,probability")
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_missing_output_directory_is_named_as_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_capture(["--scenario", "hom2", "--output", "nodir/x.csv"], capsys)
    assert code == cli.EXIT_IO
    assert out == ""
    assert len(err.splitlines()) == 1 and "nodir/x.csv'" in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_empty_output_is_usage_error(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", "hom2", "--output", ""])
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--output" in err
    assert [p.name for p in tmp_path.iterdir()] == ["work"] and list(work.iterdir()) == []


def test_a_failed_replace_is_named_as_given(tmp_path, monkeypatch):
    # an empty path resolves to the working directory, which no file can replace
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(OSError) as exc:
        cli._write("", "table\n")
    assert exc.value.filename == "" and exc.value.filename2 is None
    assert [p.name for p in tmp_path.iterdir()] == ["work"] and list(work.iterdir()) == []


# a directory, and a file name ending in a separator, which only a directory can have
@pytest.mark.parametrize("suffix", ["", os.sep + "out.csv" + os.sep])
def test_unwritable_output_is_io_error(tmp_path, capsys, suffix):
    code, _, err = _run_capture(
        ["--scenario", "hom2", "--steps", "11", "--output", str(tmp_path) + suffix], capsys
    )
    assert code == cli.EXIT_IO
    assert len(err.splitlines()) == 1 and "cannot write" in err
    assert list(tmp_path.iterdir()) == []


def test_a_device_is_written_in_place(capsys):
    # os.replace cannot put a file in place of a device, so the table goes straight into it
    code, out, err = _run_capture(["--scenario", "hom2", "--steps", "3", "--output", os.devnull],
                                  capsys)
    assert (code, out, err) == (cli.EXIT_OK, "", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_new_directory_path_is_io_error_and_creates_nothing(tmp_path, capsys):
    target = str(tmp_path / "new") + os.sep
    code, out, err = _run_capture(["--scenario", "hom2", "--steps", "3", "--output", target],
                                  capsys)
    assert code == cli.EXIT_IO and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("fockproj: cannot write output:")
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_is_io_error(monkeypatch, capsys):
    # a process started with its stdout closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(["--scenario", "hom2", "--steps", "3"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_IO
    assert err == "fockproj: cannot write output: stdout is closed\n"


def _python(*argv, **kwargs):
    """A child Python process that imports the fockproj under test."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_importing_fockproj_starts_no_blas_thread(preset):
    # fockproj calls no BLAS routine, so its import of numpy leaves OpenBLAS without a worker
    # thread; a value the caller set is kept, and the environment is left as it was found
    code = ("import os; before = dict(os.environ); import fockproj; "
            "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True, timeout=60,
                          capture_output=True, check=True)
    threads, unchanged, value = proc.stdout.split()
    assert unchanged == "True" and value == str(preset)
    if preset is None:
        assert threads == "1"


def test_running_the_cli_module_is_refused():
    # `python -m fockproj.cli` would load a second copy of the module; it sweeps nothing
    proc = _python("-m", "fockproj.cli", "--scenario", "hom2", "--steps", "3", capture_output=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "python -m fockproj`" in proc.stderr and "`fockproj`" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "hom4-coincidence", "--steps", "11"],
        # a far polarizer angle: no gamma reported as both a Min and a Max
        ["--scenario", "classical-polarization", "--theta1", "1e13", "--theta2", "0.3", "--steps", "1001"],
    ],
    ids=["hom4-coincidence", "far-polarizer"],
)
def test_python_m_fockproj_prints_a_finite_json_table(argv):
    # the package's __main__ runs as its own process, outside pytest's warning filter
    proc = _python("-W", "error::RuntimeWarning", "-m", "fockproj", *argv, "--format", "json",
                   capture_output=True)
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    payload = json.loads(proc.stdout, parse_float=_finite,
                         parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
    gammas = [e["gamma"] for e in payload["extrema"]]
    assert gammas and len(set(gammas)) == len(gammas)


def test_a_process_started_with_stdout_closed_exits_with_an_io_error():
    # fd 1 closed in the child, as by the shell's `fockproj >&-`
    proc = _python("-m", "fockproj", "--scenario", "hom2", "--steps", "3",
                   stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr == "fockproj: cannot write output: stdout is closed\n"


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_every_json_number_is_the_float_of_its_csv_cell(scenario):
    # the off-axis projector makes the single-photon curves turn, so extrema are compared too
    angles = ProjectorAngles(math.pi / 8, math.pi) if scenario.value.startswith("single-") else None
    result = analysis.sweep(scenario, 101, angles)
    payload = json.loads(cli.render_json(result))
    header, *lines = cli.render_csv(result).splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("# ")]
    footer = dict(line[2:].split(",", 1) for line in lines if line.startswith("# "))
    for j, name in enumerate(("gammas", "probabilities", "closed_forms", "indistinguishability")):
        cells = [row[j] for row in rows]
        assert payload[name] == (None if cells[0] == "" else [float(cell) for cell in cells])
    extrema = [] if footer["extrema"] == "none" else footer["extrema"].split(";")
    assert [(e["kind"], e["gamma"], e["value"]) for e in payload["extrema"]] == [
        (kind, float(gamma), float(value)) for kind, gamma, value in (e.split(":") for e in extrema)
    ]
    assert payload["params"] == {key: float(footer[key]) for key in result.params}
    assert payload["max_closed_form_deviation"] == float(footer["max_closed_form_deviation"])
    assert [payload[key] for key in ("scenario", "steps", "verdict")] == [
        footer["scenario"], int(footer["steps"]), footer["verdict"]
    ]


@pytest.mark.parametrize("error", [ProbabilityRangeError, ValueError])
def test_invariant_violation_exits_with_code_3(error, monkeypatch, capsys):
    # a checked request that the library still refuses is an invariant violation, not a traceback
    def explode(*args, **kwargs):
        raise error("raw probability 1.5 outside the slack")

    monkeypatch.setattr(cli.analysis, "sweep", explode)
    code, out, err = _run_capture(["--scenario", "hom2"], capsys)
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert err == "fockproj: invariant violation: raw probability 1.5 outside the slack\n"


def test_probabilities_emitted_within_unit_interval(capsys):
    for scenario in ("hom2", "hom4-bunching", "two-photon-polarization"):
        _, out, _ = _run_capture(["--scenario", scenario, "--steps", "21"], capsys)
        for line in out.strip().split("\n")[1:]:
            if line.startswith("#"):
                continue
            p = float(line.split(",")[1])
            assert 0.0 <= p <= 1.0


REJECTED = [
    ("classical-polarization", {"theta1": "nan"}),
    ("classical-polarization", {"theta2": "-inf"}),
    ("classical-polarization", {"amplitude": "inf"}),
    ("classical-polarization", {"amplitude": "1e100"}),
    ("hom2", {"beta": "0.3", "theta": "1.0"}),
    ("hom2", {"theta1": "0.3"}),
    ("single-loss", {"beta": "0.3", "theta": "1.0", "eta": "0.5"}),
    ("single-deliberate", {"beta": "nan", "theta": "1.0"}),
    ("hofmann-cascade", {"eta": "nan"}),
]


@pytest.mark.parametrize("scenario,flags", REJECTED)
def test_bad_or_unused_flags_are_rejected_by_cli_and_library(scenario, flags, capsys):
    argv = ["--scenario", scenario, "--format", "json"]
    argv += [f"--{name}={value}" for name, value in flags.items()]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("fockproj: error: --")
    # the same values handed to the library, mapped as a seeded sweep maps them, are refused too
    p = {name: float(value) for name, value in flags.items()}
    with pytest.raises(ValueError):
        angles = ProjectorAngles(p.pop("beta"), p.pop("theta")) if "beta" in p else None
        detectors = DetectorModel(p.pop("eta")) if "eta" in p else None
        analysis.sweep(ScenarioId(scenario), analysis.DEFAULT_STEPS, angles, detectors, **p)


@pytest.mark.parametrize(
    "scenario,flag,value",
    [
        ("classical-polarization", "theta1", "-1e-3"),
        ("classical-polarization", "theta1", "-.5e1"),
        ("classical-polarization", "theta2", "-1E+2"),
        ("classical-polarization", "theta1", "-0.5"),
        ("single-deliberate", "beta", "1e-3"),
    ],
)
def test_every_float_spelling_is_a_flag_value(scenario, flag, value):
    # argparse alone takes '-1e-3' or '-.5e1' for an unknown flag ("expected one argument")
    extra = ["--theta", "1.0"] if scenario.startswith("single-") else []  # beta is the flag tested
    spaced = cli.parse_args(["--scenario", scenario, *extra, f"--{flag}", value])
    assert getattr(spaced, flag) == float(value)
    assert spaced == cli.parse_args(["--scenario", scenario, *extra, f"--{flag}={value}"])


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("theta1", "-inf", "--theta1 must lie in (-inf, inf), got -inf"),
        ("theta2", "-Infinity", "--theta2 must lie in (-inf, inf), got -inf"),
        ("theta1", "-nan", "--theta1 must lie in (-inf, inf), got nan"),
        ("amplitude", "-1e-3", "--amplitude must lie in [0, 2e77], got -0.001"),
    ],
)
def test_a_spaced_negative_value_gets_the_range_message(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", "classical-polarization", f"--{flag}", value])
    out, err = capsys.readouterr()
    assert exc.value.code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"fockproj: error: {message}\n"


def test_a_stray_number_is_still_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", "classical-polarization", "-1e-3"])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "fockproj: error: unrecognized arguments: -1e-3\n"


# -- the flags derived from the parameter table

_FIXED = {"--scenario": "hom2", "--steps": "5", "--format": "csv", "--output": "-"}
_VALUE_FLAGS = {**_FIXED, **{f"--{p.name}": "0.5" for p in models.PARAMETERS}}


def test_the_value_flags_are_the_fixed_four_and_one_per_parameter():
    parser = cli.build_parser()
    flags = {s for action in parser._actions if action.nargs != 0 for s in action.option_strings}
    assert flags == set(_VALUE_FLAGS)


def test_help_gives_each_parameter_its_doc_range_default_and_scenarios(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no help line is wrapped inside a scenario name
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for p in models.PARAMETERS:
        help_ = text.split(f"--{p.name} {p.name.upper()} ", 1)[1].split(" --", 1)[0]
        assert help_.startswith(f"{p.doc}, {p.bounds}; ")
        assert ("required by" in help_) == (p.default is None)
        if p.default is not None:
            assert f"default {p.default:.12g};" in help_
        users = {s.value for s in ScenarioId if p in models.SCENARIOS[s].params}
        assert set(help_.split(" by ", 1)[1].split(", ")) == users


def _spellings(flag, value):
    """`flag value`, `flag=value`, and `flag` less its last letter where that names it alone."""
    spellings = [[flag, value], [f"{flag}={value}"]]
    if not any(other != flag and other.startswith(flag[:-1]) for other in _VALUE_FLAGS):
        spellings.append([flag[:-1], value])
    return spellings


@pytest.mark.parametrize(
    "flag,first",
    [(flag, first) for flag, v in _VALUE_FLAGS.items() for first in _spellings(flag, v)]
    + [("--amplitude", ["--amp", "1"]), ("--steps", ["--st=3"])],
)
def test_a_repeated_value_flag_is_a_usage_error(flag, first, capsys):
    # the first value used to be dropped without a word
    argv = [*first, flag, _VALUE_FLAGS[flag]] + (["--scenario", "hom2"] if flag != "--scenario" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"fockproj: error: argument {flag}: given more than once\n")


def test_a_parser_counts_each_flag_afresh_in_every_parse():
    parser = cli.build_parser()
    for steps in ("5", "7"):
        assert parser.parse_args(["--scenario", "hom2", "--steps", steps]).steps == int(steps)


# -- the memo of the gamma and indistinguishability cells


def _sweeps(steps):
    # the off-axis projector for the scenarios that need one
    return [analysis.sweep(s, steps, ProjectorAngles(math.pi / 8, math.pi)
                           if s.value.startswith("single-") else None) for s in ScenarioId]


@pytest.mark.parametrize("steps", [3, 101, 1001])
def test_warm_and_cold_memo_render_the_same_bytes(steps):
    results = _sweeps(steps)
    warm = [(cli.render_csv(r), cli.render_json(r)) for r in results]
    for result, texts in zip(results, warm):
        cli._cells.cache_clear()
        assert (cli.render_csv(result), cli.render_json(result)) == texts


_TIE = 0.1234567890125  # just below the decimal tie: "%.12g" gives ...012, one ulp up ...013


@pytest.mark.parametrize(
    "column,row,before,after",
    [
        ("gammas", 50, _TIE, math.nextafter(_TIE, 1.0)),
        ("indistinguishability", 50, _TIE, math.nextafter(_TIE, 1.0)),
        ("gammas", 0, 0.0, -0.0),  # equal as floats, so a key that compares floats is stale
    ],
)
def test_a_column_one_ulp_off_renders_its_own_cells(column, row, before, after):
    result = analysis.sweep(ScenarioId.HOM2, 101)
    cells = []
    for value in (before, after):
        values = list(getattr(result, column))
        values[row] = value
        changed = dataclasses.replace(result, **{column: tuple(values)})
        line = cli.render_csv(changed).splitlines()[1 + row]
        cells.append(line.split(",")[cli._COLUMNS.index(column)])
        assert json.loads(cli.render_json(changed))[column][row] == float(cli._CELL % value)
    assert cells == [cli._CELL % before, cli._CELL % after]
    assert cells[0] != cells[1]


def test_the_memo_is_bounded_and_skips_the_classical_column():
    for steps in (3, 101, 1001):
        for result in _sweeps(steps):
            cli.render_csv(result)
    assert cli._cells.cache_info().currsize <= 10
    # classical light has no indistinguishability column: its gamma cells are all it keeps
    classical = analysis.sweep(ScenarioId.CLASSICAL_POLARIZATION, 11)
    cli._cells.cache_clear()
    cli.render_csv(classical)
    cli.render_json(classical)
    assert cli._cells.cache_info().currsize == 1


# -- every cell against its sweep value, and the closed-form cell shortcut


def _seeded_sweep(scenario, steps, seed):
    """A sweep at parameters drawn from the scenario's ranges, cut to [-10, 10]."""
    rng = random.Random(f"{scenario.value}:{seed}")
    p = {q.name: rng.uniform(max(q.lo, -10.0), min(q.hi, 10.0))
         for q in models.SCENARIOS[scenario].params}
    angles = ProjectorAngles(p.pop("beta"), p.pop("theta")) if "beta" in p else None
    detectors = DetectorModel(p.pop("eta")) if "eta" in p else None
    return analysis.sweep(scenario, steps, angles, detectors, **p)


@pytest.mark.parametrize("steps", [3, 11, 101, 1001])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_every_cell_is_the_cell_of_its_sweep_value(scenario, steps):
    # formats every value on its own, so a cell the renderer wrongly reuses shows here;
    # a result built by hand may hold tuples of floats, which must render the same bytes
    for seed in range(2):
        result = _seeded_sweep(scenario, steps, seed)
        tuples = dataclasses.replace(result, **{
            name: None if c is None else tuple(c.tolist())
            for name, c in ((name, getattr(result, name)) for name in cli._COLUMNS)})
        assert type(tuples.probabilities) is tuple and type(tuples.gammas) is tuple
        assert cli.render_csv(tuples) == cli.render_csv(result)
        assert cli.render_json(tuples) == cli.render_json(result)
        assert tuples.max_closed_form_deviation() == result.max_closed_form_deviation()
        probabilities = result.probabilities
        if scenario in models.QUANTUM_SCENARIOS:
            probabilities = np.clip(probabilities, 0.0, 1.0).tolist()
        overlap = result.indistinguishability
        if overlap is None:
            overlap = (None,) * steps
        expected = [["" if v is None else "%.12g" % v for v in row] for row in
                    zip(result.gammas, probabilities, result.closed_forms, overlap)]
        lines = cli.render_csv(result).splitlines()[1:]
        assert [line.split(",") for line in lines if not line.startswith("# ")] == expected
        payload = json.loads(cli.render_json(result))
        for j, name in enumerate(cli._COLUMNS):
            cells = [row[j] for row in expected]
            assert payload[name] == (None if cells[0] == "" else [float(c) for c in cells])


def _same(a, b):
    """`cli._same_cells` on two columns, checked sound: a row it calls the same
    prints the same.  It must not warn, whatever the values."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        same = cli._same_cells(a, b)
    assert caught == []
    for x, y in zip(a[same].tolist(), b[same].tolist()):
        assert "%.12g" % x == "%.12g" % y, (x, y)
    return same


def _ulps(x, n):
    """The floats within n ulps of x, x among them."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _all_pairs(values):
    return [a for a in values for _ in values], [b for _ in values for b in values]


@pytest.mark.parametrize("k", range(-12, 12))
def test_a_power_of_ten_and_a_value_just_below_are_told_apart(k):
    x = 10.0 ** k
    a, b = math.nextafter(x, 0.0), x * (1 - 6e-13)
    assert "%.12g" % a != "%.12g" % b  # 1e-12 against 9.99999999999e-13 for k = -12
    assert not _same([a, b], [b, a]).any()
    _same(*_all_pairs(_ulps(x, 4) + _ulps(b, 4)))


@pytest.mark.parametrize("k", [-300, -20, -5, -1, 0, 1, 7, 300])
def test_decimal_ties_and_decade_carries(k):
    for digits in ("1234567890125", "9999999999995", "1000000000005", "9999999999985"):
        tie = float(f"{digits[0]}.{digits[1:]}e{k}")
        _same(*_all_pairs(_ulps(tie, 3)))
        _same(*_all_pairs(_ulps(-tie, 3)))


def test_zeros_subnormals_non_finite_and_opposite_signs_are_formatted_apart():
    # equal values with one sign bit are one float, so they share a cell; every other
    # pair here, nan with itself among them, is formatted apart
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, math.inf, -math.inf, math.nan]
    values = specials + [0.25, -0.25, 1.0]
    a, b = _all_pairs(values)
    same = _same(a, b)
    shared = {(x, y) for x, y, s in zip(a, b, same) if s}
    assert shared == {(x, x) for x in values if not math.isnan(x)}


@pytest.mark.parametrize("amplitude", [2.0, 0.0, 2e77])
def test_every_classical_closed_form_cell_reuses_its_intensity_cell(amplitude):
    # the classical closed form is its engine, so the two columns are bitwise equal
    for steps in (3, 101, 1001):
        result = analysis.sweep(ScenarioId.CLASSICAL_POLARIZATION, steps, amplitude=amplitude)
        assert _same(result.probabilities, result.closed_forms).all()


def test_equal_values_away_from_a_tie_share_their_cell():
    values = [5 / 24, 0.5, 1.0, 1 / 3, 1e-7, 123.456, 2e77, 1e-290]
    assert _same(values, values).all()


@st.composite
def _nearby_pairs(draw):
    """A float and a partner: any float, a few ulps away, a small relative step
    away, or a neighbour of a 13-digit decimal tie."""
    kind = draw(st.sampled_from(["any", "ulps", "relative", "tie"]))
    if kind == "tie":
        digits = draw(st.integers(10**11, 10**12 - 1)) * 10 + 5
        a = float(f"{digits}e{draw(st.integers(-320, 295))}")
        return a, draw(st.sampled_from(_ulps(a, 2)))
    a = draw(st.floats())
    if kind == "any":
        return a, draw(st.floats())
    if kind == "ulps":
        return a, draw(st.sampled_from(_ulps(a, 3)))
    return a, a * (1 + draw(st.floats(-1e-11, 1e-11)))


@given(st.lists(_nearby_pairs(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_cells_called_the_same_print_the_same(pairs):
    a, b = zip(*pairs)
    _same(a, b)


def test_non_finite_json_value_exits_with_code_3(monkeypatch, capsys):
    sweep = cli.analysis.sweep

    def infinite(*args, **kwargs):
        result = sweep(*args, **kwargs)
        return dataclasses.replace(result, closed_forms=np.concatenate(([math.inf], result.closed_forms[1:])))

    monkeypatch.setattr(cli.analysis, "sweep", infinite)
    code, out, err = _run_capture(["--scenario", "hom2", "--steps", "11", "--format", "json"], capsys)
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert len(err.splitlines()) == 1 and "invariant violation" in err
    assert "Out of range float" in err  # the JSON encoder's refusal, not some earlier error


# -- argv fuzz: a finite table with exit 0, or exit 1/2/3 with one stderr line

_VALUE_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e100", "2e77", "abc", ""]),
)


def _flag(name: str, text: str):
    """`--name=text` as one token, or `--name text` as two, which argparse reads apart."""
    return st.sampled_from([(f"--{name}={text}",), (f"--{name}", text)])


_JUNK = st.one_of(
    st.tuples(st.sampled_from([p.name for p in models.PARAMETERS]), _VALUE_TEXT).flatmap(
        lambda kv: _flag(*kv)
    ),
    st.sampled_from(["--scenario=bogus", "--steps=x", "--format=xml", "--bogus", "stray"]).map(
        lambda a: (a,)
    ),
)


@st.composite
def _argvs(draw):
    scenario = draw(st.sampled_from(list(ScenarioId)))
    argv = [(f"--scenario={scenario.value}",)]
    for p in models.SCENARIOS[scenario].params:
        if p.default is None or draw(st.booleans()):
            value = draw(st.floats(max(p.lo, -10.0), min(p.hi, 10.0)))
            argv.append(draw(_flag(p.name, repr(value))))
    steps = draw(st.one_of(st.none(), st.integers(-1, 50), st.just(analysis.MAX_STEPS + 1)))
    if steps is not None:
        argv.append(draw(_flag("steps", str(steps))))
    argv.append(draw(st.sampled_from([(), ("--format=csv",), ("--format=json",)])))
    argv.append(draw(st.sampled_from([(), ("--output=-",), ("--output=FILE",), ("--output=DIR",)])))
    argv += draw(st.lists(_JUNK, max_size=2))
    return [a for tokens in draw(st.permutations(argv)) for a in tokens]


def _finite(text: str) -> float:
    value = float(text)
    assert math.isfinite(value)
    return value


def _check_table(text: str) -> None:
    if text.startswith("{"):
        payload = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert len(payload["gammas"]) == payload["steps"] == len(payload["probabilities"])
        return
    header, *lines = text.splitlines()
    assert header == "gamma,probability,closed_form,indistinguishability"
    rows = [line.split(",") for line in lines if not line.startswith("# ")]
    footer = dict(line[2:].split(",", 1) for line in lines if line.startswith("# "))
    assert len(rows) == int(footer["steps"])
    for row in rows:
        [_finite(cell) for cell in row if cell]
    _finite(footer["max_closed_form_deviation"])


@given(_argvs())
@settings(max_examples=150, deadline=None)
def test_every_argv_gives_a_table_or_one_line_reason(argv):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "table"
        argv = [a.replace("FILE", str(target)).replace("DIR", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == cli.EXIT_OK:
            assert err.getvalue() == ""
            _check_table(target.read_text() if target.exists() else out.getvalue())
        else:
            assert code in (cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_INVARIANT)
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
