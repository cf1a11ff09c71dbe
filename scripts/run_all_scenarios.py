#!/usr/bin/env python3
"""Sweep every built-in scenario with its reference parameters.

Writes one CSV per configuration into an output directory and prints a
verdict summary table.  The parameter choices are the interesting ones:
the off-axis projector (beta = pi/8, theta = pi) that turns the
single-photon curves non-monotonic, its proper counterpart, and the
classical polarizer pair at 0 and pi/4.  Exit codes: 1 usage error (also
a repeated flag or an empty --outdir), 2 an output directory or file that
cannot be written.
"""

import math
from pathlib import Path

from fockproj import analysis, cli
from fockproj.models import ScenarioId
from fockproj.projectors import DetectorModel, ProjectorAngles

OFFAXIS = ProjectorAngles(math.pi / 8, math.pi)
PROPER = ProjectorAngles(math.pi / 4, 0.0)

# (file stem, scenario, angles, detectors)
CONFIGS = [
    ("hom2", ScenarioId.HOM2, None, None),
    ("hom4-coincidence", ScenarioId.HOM4_COINCIDENCE, None, None),
    ("hom4-bunching", ScenarioId.HOM4_BUNCHING, None, None),
    ("single-deliberate-offaxis", ScenarioId.SINGLE_DELIBERATE, OFFAXIS, None),
    ("single-deliberate-proper", ScenarioId.SINGLE_DELIBERATE, PROPER, None),
    ("single-loss-offaxis", ScenarioId.SINGLE_LOSS, OFFAXIS, None),
    ("single-phase-noise-offaxis", ScenarioId.SINGLE_PHASE_NOISE, OFFAXIS, None),
    ("two-photon-polarization", ScenarioId.TWO_PHOTON_POLARIZATION, None, None),
    ("hofmann-cascade", ScenarioId.HOFMANN_CASCADE, None, DetectorModel(1.0)),
    ("classical-polarization", ScenarioId.CLASSICAL_POLARIZATION, None, None),
]


def main(argv=None) -> None:
    parser = cli._Parser(description=__doc__)  # every usage error: exit 1 with one line
    parser.add_argument("--outdir", default="sweeps", help="directory for the CSV files")
    parser.add_argument("--steps", type=int, default=1001, help="grid points per sweep")
    args = parser.parse_args(argv)
    if not 3 <= args.steps <= analysis.MAX_STEPS:
        parser.error(f"--steps must lie in [3, {analysis.MAX_STEPS}]")
    if args.outdir == "":
        parser.error("--outdir must name a directory")

    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        print(f"{'configuration':<28} {'verdict':<14} extrema")
        for stem, scenario, angles, detectors in CONFIGS:
            result = analysis.sweep(scenario, args.steps, angles, detectors)
            cli._write(str(outdir / f"{stem}.csv"), cli.render_csv(result))  # replaced atomically
            if result.extrema:
                marks = ", ".join(
                    f"{e.kind.value.lower()} {e.value:.6f} at gamma={e.gamma:.6f}"
                    for e in result.extrema
                )
            else:
                marks = "-"
            print(f"{stem:<28} {result.verdict.value:<14} {marks}")
    except OSError as exc:  # the error names the directory or file it could not make
        parser.exit(cli.EXIT_IO, f"{parser.prog}: cannot write output: {exc}\n")
    print(f"\nwrote {len(CONFIGS)} files to {outdir}/")


if __name__ == "__main__":
    main()
