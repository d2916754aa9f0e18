"""Runs one command at a time for the benchmark and measures it.

Reads one JSON request per line on stdin, {"argv": [...], "stdout": path,
"timeout": seconds}, runs the command with its stdout in that file and its
stderr in the same path plus ".err", and answers one JSON line {"code",
"wall_s", "rss_mb"}.  A command still running
after its timeout is killed and answered with code null.

The benchmark starts this process while it is still small.  A child's
max-RSS also counts the memory of the process that spawned it, so the
commands are spawned from here and not from the benchmark, whose memory
grows as it checks outputs.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _on_alarm(signum, frame):
    raise TimeoutError


def run(argv, stdout, timeout):
    with open(stdout, "wb") as out, open(stdout + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(0.01, timeout))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            return {"code": None, "wall_s": time.perf_counter() - start, "rss_mb": 0.0}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024}


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stdout"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
