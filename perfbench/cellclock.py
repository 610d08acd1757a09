"""Run rootcover CLI sweeps with a wall clock around each sweep cell.

    PERFBENCH_CELL_CLOCK=cells.txt python perfbench/cellclock.py [--workers N] CONFIG...

Runs ``rootcover sweep --config CONFIG [--workers N]`` through
``rootcover.cli.main`` for each config in turn, in this one interpreter,
writing their CSVs to stdout one after another.  The exit code is the
CLI's: 2 if any sweep had a cell that is not ``ok``, else 0 (a crash ends
the process with its traceback).  Each cell appends one line "n
milliseconds" to the file named by PERFBENCH_CELL_CLOCK.  The clock wraps
``rootcover.cli._sweep_cell``, which is the function the worker pool runs,
so pool workers (forked or spawned, both re-run this module) time their
own cells.
"""

import argparse
import os
import sys
import time

import workloads
from rootcover import cli

_cell = cli._sweep_cell


def clocked_cell(args):
    start = time.perf_counter()
    row = _cell(args)
    ms = (time.perf_counter() - start) * 1e3
    with open(os.environ["PERFBENCH_CELL_CLOCK"], "a", encoding="utf-8") as fh:
        fh.write(f"{row['n']} {ms!r}\n")
    return row


cli._sweep_cell = clocked_cell


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="cellclock.py")
    parser.add_argument("--workers")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)
    extra = ["--workers", args.workers] if args.workers else []
    return workloads.run_sub_sweeps(cli.main, args.configs, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
