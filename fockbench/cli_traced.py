"""Traced stand-in for `python -m fockproj`, used by the cli-cold trace run.

Usage: cli_traced.py STATS_PATH [fockproj arguments...]

Wraps the layers, runs `fockproj.cli.main` on the arguments as one root
span, restores the layers and writes the span aggregates to STATS_PATH.
Exits with the CLI's own status.
"""

import json
import sys

import fockproj.cli

import spans


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.installed():
        # looked up after install, so the root span calls the traced layers
        code = tracer.call(fockproj.cli.main, argv)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
