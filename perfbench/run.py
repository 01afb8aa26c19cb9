"""Run one workload of the repo benchmark in a fresh Python process.

    python3 perfbench/run.py --workload hmc_warm --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; every ``REPRO_*`` variable is cleared from the
workload's environment, so it runs with the shipped defaults (bench.py
prints the modes it resolved).  The last line of standard output is the
result as one JSON object; NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a run that has not finished by then is stopped and reported as failed
CHILD_TIMEOUT_S = 175


def main(argv: list[str]) -> int:
    t_start = time.time()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    env["PERFBENCH_T0"] = repr(t_start)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), *argv]
    # its own process group, so that stopping it also stops what it started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)

    def stop(signum=signal.SIGTERM, frame=None):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if frame is not None:
            sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
