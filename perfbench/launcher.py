"""Starts the benchmark's child processes and reports their wall time and peak RSS.

Linux carries the peak RSS of the process that forks a child into the
child's ``ru_maxrss``, so children forked from the benchmark itself (which
holds numpy and reference tables) would all read at least its size.  This
small process forks them instead.  It reads one JSON request per line on
stdin, ``{"argv", "cwd", "stdout", "stderr", "timeout"}``, and answers each
with ``{"wall_s", "exit", "maxrss_kb"}`` on stdout; it exits at end of input.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if child.returncode is None:
                child.kill()
                child.wait()
    return {"wall_s": wall, "exit": child.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
