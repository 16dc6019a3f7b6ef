"""Run one command from a small process; report its wall time and peak RSS.

    python3 -S perfbench/spawn.py CONSOLE COMMAND [ARG ...]

Linux carries a process's peak RSS across exec, so a command started
directly from the benchmark process, which holds oracle tables and library
results in memory, would report the benchmark's peak instead of its own.
Started from this process, which imports almost nothing, the command's
peak RSS is its own.  The command's standard output and error go to
CONSOLE; one JSON line {"wall_s", "rc", "rss_mb"} goes to standard output.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    console, argv = sys.argv[1], sys.argv[2:]
    with open(console, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "rc": os.waitstatus_to_exitcode(status),
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
