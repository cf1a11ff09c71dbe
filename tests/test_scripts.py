import runpy
import stat
from pathlib import Path

import pytest

from fockproj import analysis

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("steps", ["-1", "0", "2", str(analysis.MAX_STEPS + 1), "abc"])
def test_run_all_scenarios_refuses_steps_outside_the_grid_range(steps, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    outdir = tmp_path / "sweeps"
    with pytest.raises(SystemExit) as exc:
        main(["--steps", steps, "--outdir", str(outdir)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--steps" in err
    assert not outdir.exists()


def test_run_all_scenarios_refuses_an_unknown_flag(tmp_path, capsys):
    # a usage error, not the exit 2 kept for output the script cannot write
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    outdir = tmp_path / "sweeps"
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "--steps", "3", "--outdir", str(outdir)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--bogus" in err
    assert not outdir.exists()


def test_run_all_scenarios_refuses_an_empty_outdir(tmp_path, monkeypatch, capsys):
    # an empty path used to put the ten tables into the working directory
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--steps", "3", "--outdir", ""])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--outdir" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--steps", ["--steps", "3", "--steps", "3", "--outdir", "sweeps"]),
        ("--steps", ["--steps=3", "--st", "3", "--outdir", "sweeps"]),
        ("--outdir", ["--steps", "3", "--outdir", "a", "--outdir", "b"]),
        ("--outdir", ["--steps", "3", "--outdir=a", "--out", "b"]),
    ],
)
def test_run_all_scenarios_refuses_a_repeated_flag(flag, argv, tmp_path, monkeypatch, capsys):
    # the first value used to be dropped without a word
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.endswith(f": error: argument {flag}: given more than once\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["3", "101"])
def test_run_all_scenarios_writes_every_configuration(steps, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    main(["--steps", steps, "--outdir", str(tmp_path)])
    assert len(list(tmp_path.glob("*.csv"))) == 10
    assert "wrote 10 files" in capsys.readouterr().out


def test_run_all_scenarios_replaces_its_tables_atomically(tmp_path, monkeypatch, capsys):
    # the tables go through the CLI's writer: a rerun replaces them, keeps their permissions
    # and leaves no temp file, and a failed replace keeps the earlier table whole
    script = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))
    main, cli = script["main"], script["cli"]
    argv = ["--steps", "3", "--outdir", str(tmp_path)]
    main(argv)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    (tmp_path / "hom2.csv").chmod(0o600)
    main(argv)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
    assert stat.S_IMODE((tmp_path / "hom2.csv").stat().st_mode) == 0o600
    assert len(first) == 10 and not list(tmp_path.glob("*.tmp"))

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(tmp_path / "hom2.csv") in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


@pytest.mark.parametrize("nested", [False, True])
def test_run_all_scenarios_names_an_unusable_outdir(nested, tmp_path, capsys):
    # an existing file as the directory, or as a parent of it: exit 2 with one line
    main = runpy.run_path(str(SCRIPTS / "run_all_scenarios.py"))["main"]
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    outdir = blocker / "sweeps" if nested else blocker
    with pytest.raises(SystemExit) as exc:
        main(["--steps", "3", "--outdir", str(outdir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot write" in err and str(blocker) in err
    assert blocker.read_text() == "keep\n"


def test_the_checked_seeded_tables_match_their_recorded_digests():
    # all 3,600 tables take about 10 s, so tier-1 checks a fixed share: every other seed at
    # 3, 11 and 101 steps and every 20th at 1001 (1,395 keys, about 2 s); the script checks
    # them all, as it prints each key that differs before it rewrites the record
    script = runpy.run_path(str(SCRIPTS / "table_digests.py"))
    record = script["read_record"]()
    assert list(record) == script["keys"]()
    checked = [(scenario, seed, steps) for scenario, seed, steps in record
               if seed % (20 if steps == 1001 else 2) == 0]
    assert len(checked) == 1395
    changed = [key for key in checked if script["digest"](script["table"](key)) != record[key]]
    assert changed == []
