"""Run `python -m equivcurv.cli ARGS` and record the process's peak RSS.

    BENCH_PEAK_FILE=FILE PYTHONPATH=src python3 bench/cli_child.py ARGS...

On Linux a child's `ru_maxrss`, as `wait4` reports it, includes the parent's
resident size at the moment of exec, so a large benchmark process would hide
the program's own peak. At exit this wrapper writes VmHWM, the peak of the
program's own address space in KiB, to BENCH_PEAK_FILE.
"""

import atexit
import os
import runpy


def _record_peak():
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_PEAK_FILE"], "w", encoding="ascii") as out:
        out.write(kib)


if __name__ == "__main__":
    atexit.register(_record_peak)
    runpy.run_module("equivcurv.cli", run_name="__main__", alter_sys=True)
