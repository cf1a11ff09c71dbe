import stat

import pytest

import table_digests
from fockproj import analysis, cli
from run_all_scenarios import main
from test_cli import _python

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath


@pytest.mark.parametrize("steps", ["-1", "0", "2", str(analysis.MAX_STEPS + 1), "abc"])
def test_run_all_scenarios_refuses_steps_outside_the_grid_range(steps, tmp_path, capsys):
    outdir = tmp_path / "sweeps"
    with pytest.raises(SystemExit) as exc:
        main(["--steps", steps, "--outdir", str(outdir)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--steps" in err
    assert not outdir.exists()


def test_run_all_scenarios_refuses_an_unknown_flag(tmp_path, capsys):
    # a usage error, not the exit 2 kept for output the script cannot write
    outdir = tmp_path / "sweeps"
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "--steps", "3", "--outdir", str(outdir)])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--bogus" in err
    assert not outdir.exists()


def test_run_all_scenarios_refuses_an_empty_outdir(tmp_path, monkeypatch, capsys):
    # an empty path used to put the ten tables into the working directory
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
    main(["--steps", steps, "--outdir", str(tmp_path)])
    assert len(list(tmp_path.glob("*.csv"))) == 10
    assert "wrote 10 files" in capsys.readouterr().out


def test_run_all_scenarios_replaces_its_tables_atomically(tmp_path, monkeypatch, capsys):
    # the tables go through the CLI's writer: a rerun replaces them, keeps their permissions
    # and leaves no temp file, and a failed replace keeps the earlier table whole
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
    # tier-1 checks the fixed share, about 2 s; the script checks all 3,600 tables, as it prints
    # each key that differs before it rewrites the record
    assert list(table_digests.read_record()) == table_digests.keys()
    assert table_digests.changed(table_digests.checked_keys()) == []


def test_the_record_needs_no_test_extras():
    # the script imports fockproj and numpy only, so a table is built where pytest and
    # hypothesis cannot be imported, to the same bytes
    code = ("import sys\n"
            "sys.modules.update(pytest=None, hypothesis=None)  # an import of either raises\n"
            "import table_digests\n"
            "sys.stdout.write(table_digests.table(('hom2', 0, 3)).decode())\n")
    proc = _python("-c", code, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == table_digests.table(("hom2", 0, 3))


def test_the_checked_tables_match_the_record_at_numpys_baseline_dispatch_level():
    # numpy picks a SIMD loop for each ufunc from the CPU at import, and its complex multiply
    # fuses on some levels: a child with every dispatch target this machine has disabled runs
    # the baseline loops, and must print the same bytes
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    code = "import table_digests; print(table_digests.changed(table_digests.checked_keys()))"
    proc = _python("-c", code, capture_output=True, env={"NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
