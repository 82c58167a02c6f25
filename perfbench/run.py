"""cavitycp benchmark: times one workload of CLI commands and checks their
output.

    python3 perfbench/run.py --workload scan-gold --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Each run is a fresh process, single-threaded (CAVITYCP_THREADS unset, BLAS
pools pinned to one thread).  It calls cavitycp.cli.main(argv) in a closed
loop, one workload iteration after another, until --seconds have passed, and
checks every command's output.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh-interpreter
`import cavitycp.cli` plus registry load), wall_s (median iteration time),
peak_rss_mb and ok_frac.  Both times are scaled to a reference machine speed;
see ScaledClock.  --trace 1 also runs one traced iteration after the
timed loop and prints the per-layer metrics instead.  The last stdout line is
the result JSON; the line before it records the run environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
# speed_kernel()'s typical time on the 2-core Xeon VM the benchmark was tuned
# on; it fixes the scale of the reported seconds.
KERNEL_REF_S = 0.06
SAMPLE_EVERY_S = 0.45

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cavitycp.cli
from cavitycp.config import load_registry
text = ""
if sys.argv[2]:
    with open(sys.argv[2]) as fh:
        text = fh.read()
load_registry(text)
print(time.perf_counter() - t0)
"""


def speed_kernel() -> float:
    """Seconds for a fixed piece of work shaped like the program's: small
    complex numpy evaluations driven from Python, as in the quadrature
    panels, and a long-vector pass, as in the constant-r series."""
    import numpy as np
    nodes = np.linspace(-1.0, 1.0, 15)
    start = time.perf_counter()
    acc = 0j
    for i in range(3_000):
        b = np.sqrt(nodes * nodes + (1.0 + i) * 1j)
        r = (b - 1.0) / (b + 1.0)
        acc += np.sum(r * np.exp(2j * nodes))
    big = np.arange(200_000, dtype=float)
    acc += np.sum(np.power(0.999999, big) * np.cos(1e-3 * big))
    return time.perf_counter() - start


class ScaledClock:
    """Times calls and scales each to the reference machine speed.

    On a shared machine the speed of a core drifts by tens of percent within
    seconds, so a raw time says as much about the neighbours as about the
    program.  The clock samples the current speed with speed_kernel(): once
    before and once after each call, and, when sampling, every SAMPLE_EVERY_S
    during it from a SIGALRM handler.  The kernel time is taken out of the
    call's time, which is then divided by the mean kernel time over
    KERNEL_REF_S.  A change to the program moves the call's time and not the
    kernel's.
    """

    def __init__(self):
        self.kernel_s = []
        self.on_sample = None   # called with each in-call sample's seconds

    def _sample(self, signum, frame):
        seconds = speed_kernel()
        self.kernel_s.append(seconds)
        if self.on_sample:
            self.on_sample(seconds)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def measure(self, func, sample=True):
        """Returns (result, seconds, scaled seconds).  sample=False takes no
        samples during the call, e.g. while a child process runs it."""
        first = len(self.kernel_s)
        self.kernel_s.append(speed_kernel())
        previous = signal.signal(signal.SIGALRM, self._sample)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = func()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - sum(self.kernel_s[first + 1:])
        self.kernel_s.append(speed_kernel())
        pace = statistics.mean(self.kernel_s[first:]) / KERNEL_REF_S
        return result, seconds, seconds / pace


def measure_setup(config: str, clock: ScaledClock):
    """Median (raw, scaled) time of `import cavitycp.cli` plus registry load,
    each in a fresh interpreter; one unrecorded run first warms the caches."""
    def once():
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), config],
            capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout.strip().splitlines()[-1])

    once()
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, elapsed, scaled = clock.measure(once, sample=False)
        samples.append((seconds, seconds * scaled / elapsed))
    return tuple(statistics.median(s) for s in zip(*samples))


def run_command(cmd, reference, clock, tracer=None):
    """Run one command; returns (raw s, scaled s, data rows, problems)."""
    from cavitycp import cli
    out, err = io.StringIO(), io.StringIO()

    def guarded():
        spans = tracer.span("cli", "main") if tracer \
            else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), spans:
                return cli.main(cmd.argv), None
        except Exception:  # a crash is one failed command, not a failed run
            return None, traceback.format_exc()

    (code, crash), raw, scaled = clock.measure(guarded)
    if code != 0:
        return raw, scaled, 0, \
            [f"exit {code}: {(crash or err.getvalue()).strip()}"]
    text = out.getvalue()
    return raw, scaled, max(text.count("\n") - 1, 0), \
        workloads.check(cmd, text, reference)


def run_iteration(cmds, reference, tally, clock, tracer=None):
    """One pass over the workload's commands; returns (raw s, scaled s,
    rows)."""
    raw = scaled = 0.0
    rows = 0
    for cmd in cmds:
        r, s, n, problems = run_command(cmd, reference, clock, tracer)
        raw += r
        scaled += s
        rows += n
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            print(f"{cmd.name} failed: {'; '.join(problems)}", file=sys.stderr)
    return raw, scaled, rows


def traced_metrics(cmds, reference, tally, clock, untraced_wall):
    from tracer import Tracer
    tracer = Tracer()
    clock.on_sample = tracer.exclude
    try:
        with tracer.installed():
            _, wall, rows = run_iteration(cmds, reference, tally, clock,
                                          tracer)
    finally:
        clock.on_sample = None
    return tracer.metrics(rows=rows, overhead_s=wall - untraced_wall)


def environment():
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads_env": {v: os.environ.get(v) for v in
                            ("CAVITYCP_THREADS",) + THREAD_VARS},
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavitycp" / "cli.py").is_file():
        print(f"error: no cavitycp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CAVITYCP_THREADS", None)
    for var in THREAD_VARS:     # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    cmds = workloads.commands(args.workload, args.seed)
    reference = workloads.load_reference()
    clock = ScaledClock()
    env = environment()
    if not args.trace:
        config = str(workloads.BRAGG_CONFIG) \
            if args.workload == "depth-bragg" else ""
        env["setup_raw_s"], setup_s = measure_setup(config, clock)

    tally = {"attempted": 0, "failed": 0}
    raw, scaled = [], []
    start = time.perf_counter()
    while not scaled or time.perf_counter() - start < args.seconds:
        r, s, _ = run_iteration(cmds, reference, tally, clock)
        raw.append(r)
        scaled.append(s)
    wall_s = statistics.median(scaled)
    env.update(workload=args.workload, seed=args.seed,
               iterations=len(scaled), wall_raw_s=statistics.median(raw))
    ok = tally["attempted"] - tally["failed"]
    if args.trace:
        metrics = traced_metrics(cmds, reference, tally, clock, wall_s)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": ok / tally["attempted"], "unit": "ratio"},
        }
    env["kernel_s"] = statistics.median(clock.kernel_s)

    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
