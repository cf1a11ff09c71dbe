"""One workload process of the fockproj benchmark.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's `src`.  It imports fockproj, builds its seeded inputs, runs one
untimed warm-up request and prints `READY`; the parent times set-up up to
that line.  Then it serves one request at a time (a closed loop with a
single client) for the given number of seconds and prints one `RESULT`
line of JSON.  With `--setup-only` it exits right after `READY`.

With `--trace 1` it runs passes over a fixed request list until time is
up, each request once untraced and once traced, so the counts repeat
exactly for a seed and the tracing overhead is measured on the same
requests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import fockproj
import numpy

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Requests per traced pass: one cycle of the workload (ten for angle-scan),
# small enough for many passes in a run.
TRACE_REQUESTS = {"engine-dense": 4, "angle-scan": 50, "cli-cold": 9}
# A run goes on past its seconds until it has this many requests, so that
# curve_ms_p90 always has at least ten samples beyond it.
MIN_REQUESTS = 100
IMPORTTIME_RUNS = 3
CLI_TIMEOUT_S = 60


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _failure(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


class InProcess:
    """In-process curves: `analysis.sweep` and `cli.render_csv`."""

    REF_S = speed.REF_KERNEL_S

    def __init__(self, workload: str) -> None:
        self.workload = workload

    def reference(self) -> float:
        return speed.kernel_s()

    def execute(self, req, tracer=None):
        """Run one request; returns (seconds, problems)."""
        clock = time.perf_counter
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = clock()
            try:
                output = tracer.call(workloads.run_sweep, req) if tracer else workloads.run_sweep(req)
            except Exception as exc:  # a failed request is counted, not raised
                return clock() - t0, _failure(exc)
            elapsed = clock() - t0
        try:
            return elapsed, workloads.check_sweep(self.workload, req, output)
        except Exception as exc:
            return elapsed, _failure(exc)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class ColdCli:
    """One fresh `python -m fockproj` process per request."""

    REF_S = speed.REF_START_S

    def __init__(self) -> None:
        self.work_dir = ROOT / ".fockbench"
        self.work_dir.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=self.work_dir)
        self.env = _cli_env()
        self.serial = 0
        self.snapshots: list = []

    def reference(self) -> float:
        return speed.start_s(self.env, ROOT)

    def execute(self, req, tracer=None):
        self.serial += 1
        out = Path(self.tmp.name) / f"out{self.serial}.{req.output_format}"
        argv = workloads.cli_argv(req, str(out))
        if tracer is None:
            cmd = [sys.executable, "-m", "fockproj", *argv]
        else:
            stats = out.with_suffix(".trace.json")
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(stats), *argv]
        returncode, err, elapsed = speed.run_process(cmd, self.env, ROOT, CLI_TIMEOUT_S)
        text = out.read_text(encoding="utf-8") if out.exists() else None
        found = workloads.check_cli(req, returncode, text)
        if returncode != 0:
            found.append(err.decode(errors="replace").strip()[-300:])
        if tracer is not None:
            self.snapshots.append(json.loads(stats.read_text()))
            stats.unlink()
        out.unlink(missing_ok=True)
        return elapsed, found

    def peak_rss_mb(self) -> float:
        # largest resident set of any fockproj process this worker waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        self.tmp.cleanup()
        with contextlib.suppress(OSError):  # still in use by another run
            self.work_dir.rmdir()


def import_times_us() -> dict:
    """Median cumulative import time of numpy and fockproj, via -X importtime."""
    found: dict[str, list] = {"numpy": [], "fockproj": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fockproj"],
            env=_cli_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]))
    return {name: statistics.median(values) for name, values in found.items()}


def serve(workload: str, seed: int, seconds: float, engine) -> dict:
    """Closed loop until `seconds` have passed, stopping at a cycle boundary.

    A run that has fewer than MIN_REQUESTS requests by then goes on until
    it has them.

    The engine's reference task runs before the first request and after
    each one, for the speed normalization in speed.py.
    """
    stream = workloads.requests(workload, seed)
    cycle = workloads.CYCLE[workload]
    latencies, errors, failed_index = [], [], []
    references = [engine.reference()]
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(cycle):
            elapsed, found = engine.execute(next(stream))
            references.append(engine.reference())
            if found:
                failed_index.append(len(latencies))
                errors.extend(found[:1])
            latencies.append(elapsed)
        if time.perf_counter() >= deadline and len(latencies) >= MIN_REQUESTS:
            break
    return {
        "latencies_s": latencies,
        "reference_s": references,
        "reference_ref_s": engine.REF_S,
        "cycle": cycle,
        "failed": len(failed_index),
        "failed_index": failed_index,
        "errors": errors[:5],
    }


def serve_traced(workload: str, seed: int, seconds: float, engine) -> dict:
    """Passes over one fixed request list, each request untraced and traced."""
    import spans

    reqs = workloads.first(workload, seed, TRACE_REQUESTS[workload])
    tracer = spans.Tracer()
    walls = {False: 0.0, True: 0.0}
    failed, errors, passes = 0, [], 0
    deadline = time.perf_counter() + seconds
    while True:
        for req in reqs:
            # each request untraced, then traced: the overhead compares like with like
            for traced in (False, True):
                elapsed, found = engine.execute(req, tracer if traced else None)
                walls[traced] += elapsed
                if found:
                    failed += 1
                    errors.extend(found[:1])
        passes += 1
        if time.perf_counter() >= deadline:
            break
    snapshot = spans.merge(engine.snapshots) if workload == "cli-cold" else tracer.snapshot()
    curves = passes * len(reqs)
    metrics = spans.layer_metrics(snapshot, curves, walls[True], walls[False], import_times_us())
    return {
        "attempted": 2 * curves,
        "failed": failed,
        "errors": errors[:5],
        "layer_metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(fockproj.__file__).resolve().is_relative_to(SRC):
        print(f"worker: fockproj imported from {fockproj.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    engine = ColdCli() if args.workload == "cli-cold" else InProcess(args.workload)
    try:
        warmup = workloads.first(args.workload, args.seed, 1)[0]
        engine.execute(warmup)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        engine.reference()  # warm the reference task too, outside set-up
        if args.trace:
            out = serve_traced(args.workload, args.seed, args.seconds, engine)
        else:
            out = serve(args.workload, args.seed, args.seconds, engine)
            out["peak_rss_mb"] = engine.peak_rss_mb()
    finally:
        engine.close()
    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
