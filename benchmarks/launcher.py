"""Small process that starts the CLI ops of cli-export and times them.

Linux charges a child's peak RSS with the RSS of the process that spawned it,
so a child started by the benchmark process would report the benchmark's own
memory.  This launcher imports nothing heavy.  The children it starts report
their own peak.

Protocol on stdin/stdout: one JSON argv list per line in; per request one
JSON line {"code", "seconds", "maxrss_kb", "nbytes"} out, followed by the
child's merged stdout and stderr, nbytes long.  EOF on stdin ends it.
"""

import json
import os
import subprocess
import sys
import time


def main():
    out = sys.stdout.buffer
    for line in sys.stdin:
        t0 = time.perf_counter()
        proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        with proc.stdout:
            data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        head = {"code": proc.returncode, "seconds": seconds,
                "maxrss_kb": usage.ru_maxrss, "nbytes": len(data)}
        out.write(json.dumps(head).encode() + b"\n" + data)
        out.flush()


if __name__ == "__main__":
    main()
