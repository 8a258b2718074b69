"""Run one command; report its wall time and peak resident memory.

    python3 benchmarks/launch.py <stdout file> <stderr file> <command...>

Prints one JSON line with ``wall_s``, ``peak_rss_kb`` and ``returncode``.
On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that started it, so ``run.py``, which holds numpy, scipy and the
in-process runs, starts each CLI command through this small process.
"""

import json
import os
import subprocess
import sys
import time


def main():
    out_path, err_path, *command = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "peak_rss_kb": usage.ru_maxrss,
                      "returncode": proc.returncode}))


if __name__ == "__main__":
    main()
