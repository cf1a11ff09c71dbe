"""Command-line front end: sweep one scenario and emit a CSV or JSON table.

Each parameter flag is read from `models.PARAMETERS`.  Exit codes: 0 success,
1 usage error (a bad, non-finite, unused or repeated flag), 2 I/O error,
3 internal invariant violation (a raw probability left [0, 1] beyond the
numerical slack, or a value that is not finite).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analysis, models
from .models import ScenarioId
from .projectors import DetectorModel, ProbabilityRangeError, ProjectorAngles

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; remap to 1, with a one-line reason
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _parse_optional(self, arg_string: str):  # a float spelling, even '-1e-3', is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def parse_known_args(self, args=None, namespace=None):
        self._given = set()  # the flags read in this parse
        return super().parse_known_args(args, namespace)

    def _get_values(self, action, arg_strings):  # once per occurrence of a flag, in any spelling
        if action.dest in self._given:  # argparse would keep the last value without a word
            raise argparse.ArgumentError(action, "given more than once")
        self._given.add(action.dest)
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockproj",
        description="Sweep a distinguishability scenario and print gamma vs probability.",
    )
    parser.add_argument(
        "--scenario",
        required=True,
        choices=[s.value for s in ScenarioId],
        help="measurement scenario to sweep",
    )
    parser.add_argument(
        "--steps", type=int, default=analysis.DEFAULT_STEPS, help="grid points on [0, pi/2]"
    )
    for p in models.PARAMETERS:
        users = ", ".join(s.value for s, spec in models.SCENARIOS.items() if p in spec.params)
        use = (f"required by {users}" if p.default is None
               else f"default {_CELL % p.default}; used by {users}")
        parser.add_argument(f"--{p.name}", type=float, help=f"{p.doc}, {p.bounds}; {use}")
    parser.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")
    parser.add_argument("--output", default=None, help="output file path; '-' or absent for stdout")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and check argv into the namespace `run` takes, its `scenario` a `ScenarioId` and
    its `params` the checked parameters, defaults filled in; exits 1 on any usage problem."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 3 <= args.steps <= analysis.MAX_STEPS:
        parser.error(f"--steps must lie in [3, {analysis.MAX_STEPS}]")
    if args.output == "":
        parser.error("--output must name a file, or '-' for stdout")
    args.scenario = ScenarioId(args.scenario)
    given = {p.name: getattr(args, p.name) for p in models.PARAMETERS}
    try:
        args.params = models.checked_params(args.scenario, given)
    except ValueError as exc:
        parser.error(f"--{exc}")
    return args


_CELL = "%.12g"  # every reported number: 12 significant digits
_COLUMNS = ("gammas", "probabilities", "closed_forms", "indistinguishability")


def _formatted(values) -> list[str]:
    """`[_CELL % v for v in values]` in one `%` operation, as no cell holds a newline."""
    return ("\n".join([_CELL] * len(values)) % tuple(values)).split("\n")


@functools.lru_cache(maxsize=10)
def _cells(column: bytes) -> tuple[str, ...]:
    """Cells of a column that grid and scenario alone set, keyed by bytes: -0.0 is not 0.0."""
    return tuple(_formatted(memoryview(column).cast("d")))


def _same_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows where `_CELL % a` and `_CELL % b` provably print the same: the two are equal
    with one sign bit, so the same float; or, scaled by 10**(11 - floor(log10|a|)), both
    lie within 0.49 of one integer r in [1e11, 1e12), so both round to the 12 digits of r,
    as their error is about 4e-4.  A wrong decade fails the range tests; unequal zeros,
    subnormals and infinities, and every nan, fail a comparison."""
    with np.errstate(all="ignore"):
        size = np.abs(a)
        scale = 10.0 ** (11 - np.floor(np.log10(size)))
        ya, yb = size * scale, np.abs(b) * scale
        r = np.rint(ya)
        return (np.signbit(a) == np.signbit(b)) & (
            (a == b) | ((ya >= 1e11) & (yb >= 1e11) & (r < 1e12)
                        & (np.abs(ya - r) < 0.49) & (np.abs(yb - r) < 0.49)))


def _table(result: analysis.SweepResult) -> tuple[dict, dict]:
    """The reported cells, named as in JSON, and the footer values, with the
    scenario parameters among them.  Probabilities are clamped to [0, 1] except for
    classical light, the one result with no overlap column, whose column is an intensity.
    A closed-form cell reuses its probability cell wherever `_same_cells` proves the two equal."""
    gammas, raw, closed_forms, overlap = (
        None if c is None else np.asarray(c, float) for c in
        (result.gammas, result.probabilities, result.closed_forms, result.indistinguishability))
    probabilities = raw if overlap is None else raw.clip(0.0, 1.0)
    cells = _formatted(probabilities.tolist())
    closed = cells.copy()
    if closed_forms.tobytes() != probabilities.tobytes():  # equal bytes (classical): all shared
        for i in (~_same_cells(probabilities, closed_forms)).nonzero()[0].tolist():
            closed[i] = _CELL % closed_forms[i]
    columns = dict(zip(_COLUMNS, (_cells(gammas.tobytes()), cells, closed,
                                  None if overlap is None else _cells(overlap.tobytes()))))
    footer = dict(result.params, scenario=result.scenario.value, verdict=result.verdict.value,
                  steps=len(gammas), max_closed_form_deviation=result.max_closed_form_deviation())
    return columns, footer


def render_csv(result: analysis.SweepResult) -> str:
    """Fixed-layout CSV: data rows, an empty cell where a column is undefined,
    then '# key,value' footer lines with the keys sorted."""
    columns, footer = _table(result)
    gammas, probabilities, closed_forms, overlap = columns.values()
    lines = ["gamma,probability,closed_form,indistinguishability"]
    lines += map(",".join, zip(gammas, probabilities, closed_forms, overlap or [""] * len(gammas)))
    footer["extrema"] = ";".join(
        f"{e.kind.value}:{_CELL % e.gamma}:{_CELL % e.value}" for e in result.extrema
    ) or "none"
    for key, value in sorted(footer.items()):
        lines.append(f"# {key},{value if isinstance(value, str) else _CELL % value}")
    return "\n".join(lines) + "\n"


def render_json(result: analysis.SweepResult) -> str:
    """JSON mirror of the sweep result; every number is the float of its CSV cell."""
    columns, footer = _table(result)
    payload = {name: None if c is None else list(map(float, c)) for name, c in columns.items()}
    payload.update((key, float(_CELL % value) if isinstance(value, float) else value)
                   for key, value in footer.items())
    payload["params"] = {key: payload.pop(key) for key in result.params}
    payload["extrema"] = [
        {"gamma": float(_CELL % e.gamma), "value": float(_CELL % e.value), "kind": e.kind.value}
        for e in result.extrema
    ]
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(path: str, text: str) -> None:
    """Replace the file at `path` atomically: write a temp file beside it, under a random
    name and with the permissions of the file it replaces, then `os.replace` it over `path`;
    on failure the temp file is removed.  A device or pipe that `path` names is written in
    place, as it cannot be replaced, and so is a path that ends in a separator, which the OS
    refuses as a directory."""
    if path.endswith(os.sep) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)  # through a symlink, so the link keeps pointing at the table
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"  # not a pid, which a killed run's leftover holds
    replaced = os.path.exists(target)  # a replaced table keeps its permissions
    try:  # which its temp file never exceeds; a failure here leaves nothing behind
        mode = os.stat(target).st_mode & 0o7777 if replaced else 0o666
        handle = open(tmp, "x", encoding="utf-8", opener=lambda p, f: os.open(p, f, mode))
    except OSError as exc:  # named as asked here and below: the temp file is not the user's
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            handle.write(text)
        try:
            if replaced:  # the bits the umask dropped
                os.chmod(tmp, mode)
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def run(args: argparse.Namespace) -> int:
    """Sweep the namespace that `parse_args` returns, write the table, return the exit status."""
    params = dict(args.params)
    angles = ProjectorAngles(params.pop("beta"), params.pop("theta")) if "beta" in params else None
    detectors = DetectorModel(params.pop("eta")) if "eta" in params else None
    try:
        result = analysis.sweep(args.scenario, args.steps, angles, detectors, **params)
        text = render_csv(result) if args.format == "csv" else render_json(result)
    except (ProbabilityRangeError, ValueError) as exc:  # also JSON's refusal of a non-finite number
        print(f"fockproj: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        if args.output in (None, "-"):
            if sys.stdout is None:  # the process was started with stdout closed
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        else:
            _write(args.output, text)
    except OSError as exc:
        print(f"fockproj: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":  # `python -m fockproj.cli` would run a second copy of this module
    sys.exit("fockproj: run `python -m fockproj` or `fockproj`, not `python -m fockproj.cli`")
