"""Starts the benchmark's children and reports their wall time and peak RSS.

Linux carries a process's peak RSS across fork and exec, so a child
started by the benchmark's own process (numpy and parsed inputs loaded)
would report at least that process's size. This helper imports only the
standard library and starts every measured child instead, so a child's
``ru_maxrss`` is its own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "timeout": seconds}``, answered by one
JSON line on stdout, ``{"wall": s, "code": n, "maxrss_kb": n}``. The
helper exits when stdin closes. Children inherit the helper's environment
and working directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(f"{stdout}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
