"""Starts the benchmark's command processes from a small process.

    python3 perfbench/spawner.py TIMEOUT_S

Reads one JSON request per line on stdin, ``{"argv": [...], "out": path,
"err": path}``, runs the command with its standard output and error
redirected to those files, and answers one JSON line ``{"wall", "code",
"rss_mb"}``.  Exits at end of input.

Linux keeps the peak RSS of the process image that ``exec`` replaces, so a
child's ``ru_maxrss`` is at least the RSS of whoever spawned it.  Spawning
from this process, which stays near the size of a bare interpreter, keeps
the benchmark's own memory out of the reported peak.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout = float(sys.argv[1])
    child = None

    def on_timeout(signum, frame):
        if child is not None:
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_timeout)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o644),
        ]
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - t0
        child = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        reply = {"wall": wall, "code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
