"""Run one command; print its exit code, wall time, peak RSS and the host
speed probes taken while it ran (see speed.py) as JSON.

    python3 benchmarks/launch.py TIMEOUT_S LOG -- ARGV...

The command's output goes to LOG.  The command is killed after TIMEOUT_S
seconds.  The benchmark starts every measured process through this small
interpreter because Linux carries a process's peak RSS across fork and
exec: a child spawned straight from the benchmark, which holds parsed
documents, would report the benchmark's own peak in place of its own.  The
command inherits this process's CPU affinity, so the probes run on the CPU
the command runs on, the one the benchmark pins itself to.
"""

import json
import os
import subprocess
import sys
import threading
import time

import speed


def main() -> int:
    timeout, log = float(sys.argv[1]), sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sampler = speed.Sampler()
    with open(log, "wb") as sink:
        sampler.start()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        sampler.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "maxrss_kb": usage.ru_maxrss, "probes": sampler.probes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
