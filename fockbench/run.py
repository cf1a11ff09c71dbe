#!/usr/bin/env python3
"""Benchmark of fockproj, run from the root of a checkout.

One run:
    python3 fockbench/run.py --workload engine-dense --seed 1 --seconds 25 --trace 0

prints a table of metrics, a `# meta` line, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--trace 0` gives
the end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.

Every workload, with repeats and one traced run each, saved as a result set:
    python3 fockbench/run.py --all --repeat 10 --out results.json

Two result sets, metric by metric and workload by workload:
    python3 fockbench/run.py --compare fockbench/baseline.json results.json

Each workload runs in a fresh child interpreter (worker.py) that imports
fockproj from the checkout's `src`.  Set-up time is the median over
several spawns of that child; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYER_MAP_PATH = BENCH_DIR / "layer_map.json"

SETUP_SPAWNS = 7  # set-up-only children per end-to-end run; setup_s is their median
READY_TIMEOUT_S = 60
RESULT_GRACE_S = 60


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


# -- child processes ---------------------------------------------------


def _worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@contextlib.contextmanager
def spawn_worker(args: list[str], limit_s: float):
    """Start worker.py in its own process group; yields (process, spawn time).

    On exit, and after `limit_s`, the whole group is killed, so no process
    the worker started outlives it; the worker is always reaped.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill_group() -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(limit_s, kill_group)
    timer.start()
    try:
        yield proc, spawned
    finally:
        timer.cancel()
        kill_group()
        proc.wait()
        proc.stdout.close()


def _wait_ready(proc, spawned: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker did not get ready (exit {proc.wait()})")
    return time.perf_counter() - spawned


def _read_result(proc) -> dict:
    result = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.wait() != 0 or result is None:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[float], list[float]]:
    """Worker result, set-up times (spawn to READY), and set-up times at reference speed."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    raw: list[float] = []
    normalized: list[float] = []

    def setup_block(count: int) -> None:
        # bare interpreter starts between the spawns; their median is the
        # machine's speed for the block, which lasts a few seconds
        starts = [speed.start_s(_worker_env(), ROOT)]
        block = []
        for _ in range(count):
            with spawn_worker(args + ["--setup-only"], READY_TIMEOUT_S) as (proc, spawned):
                block.append(_wait_ready(proc, spawned))
                if proc.wait() != 0:
                    raise BenchError(f"set-up worker failed (exit {proc.returncode})")
            starts.append(speed.start_s(_worker_env(), ROOT))
        raw.extend(block)
        normalized.extend(t * speed.REF_START_S / statistics.median(starts) for t in block)

    # set-up is sampled before and after the measured loop, so that one
    # slow spell of the machine does not decide the median
    count = 0 if trace else SETUP_SPAWNS
    if count:
        setup_block(count - count // 2)
    with spawn_worker(args, READY_TIMEOUT_S + seconds + RESULT_GRACE_S) as (proc, spawned):
        _wait_ready(proc, spawned)
        result = _read_result(proc)
    if count:
        setup_block(count // 2)
    return result, raw, normalized


# -- metrics -----------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _cycle_rates(lat: list[float], failed: set, cycle: int) -> list[float]:
    """Completed curves per second of request time, one value per cycle."""
    return [
        sum(1 for i in range(start, start + cycle) if i not in failed) / sum(lat[start:start + cycle])
        for start in range(0, len(lat), cycle)
    ]


def end_to_end(result: dict, raw_setup: list[float], norm_setup: list[float]) -> tuple[dict, dict, dict]:
    """End-to-end values at reference speed (speed.py), the same from raw wall times, sample counts."""
    raw_lat = result["latencies_s"]
    norm_lat = speed.normalize(raw_lat, result["reference_s"], result["reference_ref_s"])
    failed = set(result["failed_index"])
    cycle = result["cycle"]

    def metrics(lat: list[float], setup: list[float]) -> dict:
        # a failed request misses every latency limit
        ranked = sorted(math.inf if i in failed else x for i, x in enumerate(lat))
        return {
            "curve_ms_p50": statistics.median(ranked) * 1e3,
            "curve_ms_p90": nearest_rank(ranked, 0.9) * 1e3,
            "curves_per_s": statistics.median(_cycle_rates(lat, failed, cycle)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "failed_ratio": len(failed) / len(lat),
        }

    n = len(raw_lat)
    samples = {"curve_ms_p50": n, "curve_ms_p90": n, "curves_per_s": n // cycle,
               "setup_s": len(raw_setup), "peak_rss_mb": 1, "failed_ratio": n}
    return metrics(norm_lat, norm_setup), metrics(raw_lat, raw_setup), samples


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run as a record: metrics, counts, samples and metadata."""
    if workload not in workload_names(spec):
        raise BenchError(f"unknown workload {workload!r}; choose from {workload_names(spec)}")
    if not (ROOT / "src" / "fockproj" / "__init__.py").is_file():
        raise BenchError(f"no fockproj sources under {ROOT / 'src'}")
    load_start = os.getloadavg()
    result, raw_setup, norm_setup = measure(workload, seed, seconds, trace)
    if trace:
        values, raw, samples = result["layer_metrics"], {}, {}
        wanted = [m["name"] for m in spec["per_layer"]]
        attempted = result["attempted"]
    else:
        values, raw, samples = end_to_end(result, raw_setup, norm_setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
        attempted = len(result["latencies_s"])
    missing = [name for name in wanted if name not in values]
    if missing:
        raise BenchError(f"benchmark produced no value for {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": result["failed"],
        "errors": result["errors"],
        "values": values,
        "raw_wall": raw,
        "samples": samples,
        "meta": {
            "git_rev": _git_rev(),
            "src_sha256": _src_digest(),
            "python": result["versions"]["python"],
            "numpy": result["versions"]["numpy"],
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "seed": seed,
        },
    }


def result_line(spec: dict, record: dict) -> str:
    """The last line of a run: one JSON object with the result."""
    table = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]} for m in table}
    correct = record["failed"] == 0
    return json.dumps(
        {"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}
    )


def format_record(spec: dict, record: dict) -> str:
    head = (
        f"{record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}  "
        f"trace={record['trace']}  attempted={record['attempted']}  failed={record['failed']}"
    )
    lines = [head]
    lines += [f"  ! {e}" for e in record["errors"]]
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for group in json.loads(LAYER_MAP_PATH.read_text())["groups"]:
            lines.append(f"  [{group['name']}]")
            for name in group["metrics"]:
                lines.append(f"    {name:<44} {record['values'][name]:>14.6g} {units[name]}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units["failed_ratio"] = "ratio"
        lines.append(f"  {'metric':<14} {'value':>12} {'unit':<6} {'raw wall':>12}")
        for name, value in record["values"].items():
            n = record["samples"][name]
            note = ""
            if name == "curve_ms_p90":
                beyond = n - math.ceil(0.9 * n)
                note = f" ({beyond} beyond)" + ("  fewer than 10 samples beyond p90" if beyond < 10 else "")
            raw = record["raw_wall"][name]
            lines.append(f"  {name:<14} {value:>12.6g} {units[name]:<6} {raw:>12.6g}  n={n}{note}")
    return "\n".join(lines)


# -- result sets and comparison -----------------------------------------


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _values(runs: list[dict], workload: str, trace: int, name: str) -> list[float]:
    return [r["values"][name] for r in runs if r["workload"] == workload and r["trace"] == trace and name in r["values"]]


def summarize(spec: dict, runs: list[dict]) -> str:
    """Median and quartile spread of each end-to-end metric per workload."""
    lines = []
    for workload in workload_names(spec):
        for m in spec["end_to_end"]:
            values = _values(runs, workload, 0, m["name"])
            if values:
                s = spread(values)
                flag = "" if s < m["bound"] / 3 else "  spread above a third of the bound"
                lines.append(
                    f"{workload:<13} {m['name']:<13} median {statistics.median(values):>10.6g} {m['unit']:<5}"
                    f" n={len(values):<3} spread {s:6.2%}  bound {m['bound']:.0%}{flag}"
                )
    return "\n".join(lines)


def compare(spec: dict, base: list[dict], new: list[dict]) -> str:
    """Each metric and workload as new/base, with its base and a status."""
    lines = []
    for workload in workload_names(spec):
        for m in spec["end_to_end"]:
            b, n = _values(base, workload, 0, m["name"]), _values(new, workload, 0, m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            lower = m["better"] == "lower"
            worse_by = (nm - bm) / bm if lower else (bm - nm) / bm
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            sb, sn = spread(b), spread(n)
            if max(sb, sn) > m["bound"] and not all_better:
                status = "unresolved (spread wider than bound)"
            elif worse_by > m["bound"]:
                status = "REGRESSED"
            elif worse_by < -m["bound"]:
                status = "better by more than the bound"
            else:
                status = "within bound"
            lines.append(
                f"{workload:<13} {m['name']:<13} {nm / bm:6.3f}x of base {bm:.6g} {m['unit']}"
                f" (n={len(b)}; new {nm:.6g}, n={len(n)})  spread {sb:.1%}/{sn:.1%}"
                f"  bound {m['bound']:.0%}  {status}"
            )
        for m in spec["per_layer"]:
            b, n = _values(base, workload, 1, m["name"]), _values(new, workload, 1, m["name"])
            if b and n:
                bm, nm = statistics.median(b), statistics.median(n)
                ratio = f"{nm / bm:6.3f}x" if bm else "   n/a"
                lines.append(f"{workload:<13} {m['name']:<44} {ratio} of base {bm:.6g} {m['unit']} (new {nm:.6g})")
    return "\n".join(lines)


def load_runs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


# -- command line --------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, --repeat times, then one traced run each")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the runs as a result set to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result sets")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            print(compare(spec, load_runs(args.compare[0]), load_runs(args.compare[1])))
            return 0
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        if args.all:
            plan = [(w, args.seed + i, 0) for i in range(args.repeat) for w in workload_names(spec)]
            plan += [(w, args.seed, 1) for w in workload_names(spec)]
        elif args.workload:
            plan = [(args.workload, args.seed + i, args.trace) for i in range(args.repeat)]
        else:
            parser.error("give --workload, --all or --compare")
        runs = []
        for workload, seed, trace in plan:
            record = run_once(spec, workload, seed, seconds, trace)
            runs.append(record)
            print(format_record(spec, record))
            print("# meta " + json.dumps(record["meta"]))
            if args.out:
                Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        if len(runs) > 1:
            print(summarize(spec, runs))
        else:
            print(result_line(spec, runs[0]), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"fockbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
