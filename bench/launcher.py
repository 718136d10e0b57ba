"""Child-process launcher for run.py.

Reads one JSON request per line on stdin, the arguments for the Python
interpreter (`["-m", "biheyt.cli", ...]` for a CLI job), runs that
process to exit with this process's environment, and answers one JSON
line: seconds from spawn to reap, user+system CPU seconds and peak RSS
from wait4, the exit code, stdout and stderr.

It is a small process of its own because Linux reports a child's peak
RSS as at least the peak RSS of the process that spawned it: spawned
from run.py, which holds the checks and the oracle, the figure would be
run.py's. This process runs without `site` and imports only what it
needs, so its own peak (about 11 MB) stays below a CLI job's (about
15.5 MB; 13.4 MB for a bare interpreter with `site`).
"""

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter


def run(args, limit_s):
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + limit_s - perf_counter()
            if left <= 0:
                proc.kill()
            for key, _ in sel.select(max(left, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "out": b"".join(chunks[proc.stdout]).decode(errors="replace"),
        "err": b"".join(chunks[proc.stderr]).decode(errors="replace"),
    }


def main():
    limit_s = float(sys.argv[1])
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line), limit_s)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
