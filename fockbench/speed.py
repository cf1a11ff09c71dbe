"""Machine-speed calibration for the benchmark's timings.

A shared two-core box does not run at one speed: a fixed pure-Python
curve repeated for minutes takes either about 2.9 ms or about 5.3 ms,
switching every few seconds with the load of other tenants.  No run
length within the benchmark's budget averages that out, so every timing
is also taken relative to a reference task that does not involve
fockproj, run the same way on the same machine around it:

* in-process requests: `kernel`, a fixed loop of dict, tuple and complex
  arithmetic like the engine's own;
* processes (cli-cold requests and set-up spawns): a bare interpreter
  start, `python -c pass`.

A time t is reported as t * ref / c, where c is the median reference
time around it: the time it would take on a machine where the reference
task takes `ref`.  The `ref` constants are the fast-state times of the
reference tasks on the machine the baseline was recorded on (a 2-vCPU
Intel Xeon VM), so normalized values read as that machine's milliseconds
when it is quiet.  Raw wall times are kept next to them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

REF_KERNEL_S = 1.0e-3
REF_START_S = 0.05
# references on each side of a request that set its machine speed
HALF_WINDOW = 3


def kernel() -> int:
    acc: dict = {}
    for i in range(2000):
        key = (i % 7, i % 5, i % 3, i % 2)
        acc[key] = acc.get(key, 0j) + complex(i, 1.0) * 0.5
    return len(acc)


def kernel_s() -> float:
    """Seconds for one run of the in-process reference task."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def run_process(cmd: list[str], env: dict, cwd, timeout_s: float) -> tuple[int, bytes, float]:
    """Exit status, stderr and wall seconds of one child process.

    Waits in blocking calls: `subprocess.run(timeout=...)` polls for the
    exit with sleeps of up to 50 ms, which would quantize the timings.
    A watchdog kills a child that outlives `timeout_s`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    return proc.returncode, err, time.perf_counter() - t0


def start_s(env: dict, cwd) -> float:
    """Seconds for one bare interpreter start, spawned like the measured processes."""
    code, err, seconds = run_process([sys.executable, "-c", "pass"], env, cwd, 60)
    if code != 0:
        raise RuntimeError(f"bare interpreter start failed: {err.decode(errors='replace')}")
    return seconds


def normalize(times: list[float], references: list[float], ref: float) -> list[float]:
    """Each time scaled by ref over the machine speed around it.

    `references` has one more entry than `times`: references[i] was taken
    right before times[i] and references[i + 1] right after it.  The speed
    around times[i] is the median of the HALF_WINDOW references before it
    and the HALF_WINDOW after it, which smooths the noise of single
    reference runs; the machine's speed changes over seconds, not
    requests.
    """
    if len(references) != len(times) + 1:
        raise ValueError("need one reference time before and after each timing")
    return [
        t * ref / statistics.median(references[max(0, i + 1 - HALF_WINDOW) : i + 1 + HALF_WINDOW])
        for i, t in enumerate(times)
    ]
