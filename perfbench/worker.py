"""Work the benchmark runs in fresh interpreters (one process per call).

    python perfbench/worker.py setup WORKLOAD SEED OUT [--trace SPANS]
    python perfbench/worker.py ladder INPUTS PASSES OUT [--trace SPANS]
    python perfbench/worker.py sweep CONFIG... --trace SPANS
    python perfbench/worker.py check-sweep CONFIG CSV SHARD SHARDS OUT
    python perfbench/worker.py check-ladder INPUTS OUT

``setup`` imports rootcover and builds a workload's inputs; ``ladder`` runs
the report ladder (an untimed warm-up pass, then timed passes); ``sweep``
runs the CLI sweeps in one process under the tracer; the ``check-*``
commands are the correctness gate, run after the timed region.  Results go
to JSON files; the traced CLI sweep writes its CSV to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import workloads


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _start_tracer(spans_path):
    if spans_path is None:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_tracer(tracer, spans_path) -> None:
    if tracer is not None:
        _write(spans_path, tracer.summary())


def cmd_setup(args) -> int:
    start = time.perf_counter()
    import rootcover
    from rootcover import asympt, logchern

    import_s = time.perf_counter() - start
    import sympy

    tracer = _start_tracer(args.trace)
    if args.workload == workloads.LADDER:
        for r in workloads.LADDER_R:
            logchern.make_preset("hypersurface_p4", (workloads.LADDER_D, r))
        cells, dropped = [], []
        for n in workloads.LADDER_N:
            for r, count in workloads.LADDER_R.items():
                try:
                    for search_seed in workloads.ladder_search_seeds(args.seed, count):
                        part = asympt.find_asymptotic_partition(
                            n, r, search_seed, workloads.LADDER_TRIALS
                        )
                        cells.append([n, r, list(part.nu)])
                except rootcover.Exhausted:
                    # No partition within the budget: drop the whole rung.
                    cells = [c for c in cells if c[:2] != [n, r]]
                    dropped.append([n, r])
        inputs = {"cells": cells, "dropped": dropped}
    else:
        configs = workloads.sweep_configs(args.workload, args.seed)
        cfg = configs[0]
        logchern.make_preset(cfg["preset"], (cfg["d"], cfg["r"]))
        inputs = {"configs": configs}
    _finish_tracer(tracer, args.trace)
    _write(args.out, {
        "inputs": inputs,
        "import_s": import_s,
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
    })
    return 0


def _ladder_cells(inputs):
    from rootcover import asympt, logchern

    pairs = {}
    cells = []
    for n, r, nu in inputs["cells"]:
        if r not in pairs:
            pairs[r] = logchern.make_preset("hypersurface_p4", (workloads.LADDER_D, r))
        cells.append((pairs[r], asympt.Partition(n, tuple(nu))))
    return cells


def cmd_ladder(args) -> int:
    import rootcover.invariants as inv

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = _start_tracer(args.trace)
    cells = _ladder_cells(inputs)
    strategy = workloads.LADDER_STRATEGY
    # Untimed warm-up pass; its reports are the ladder's output bytes.
    reports = [inv.invariant_report(pair, part, strategy) for pair, part in cells]
    text = json.dumps([inv.report_to_json_dict(r) for r in reports], sort_keys=True)
    samples = [[] for _ in cells]
    mismatches = 0
    clock = time.perf_counter
    timed_start = clock()
    for _ in range(args.passes):
        for i, (pair, part) in enumerate(cells):
            start = clock()
            report = inv.invariant_report(pair, part, strategy)
            samples[i].append((clock() - start) * 1e3)
            mismatches += report != reports[i]
    timed_s = clock() - timed_start
    _finish_tracer(tracer, args.trace)
    _write(args.out, {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "samples_ms": samples,
        "timed_s": timed_s,
        "mismatches": mismatches,
    })
    return 0


def cmd_sweep(args) -> int:
    from rootcover import cli

    tracer = _start_tracer(args.trace)
    code = workloads.run_sub_sweeps(cli.main, args.configs, ["--workers", "1"])
    _finish_tracer(tracer, args.trace)
    return code


def cmd_check_sweep(args) -> int:
    import csv
    from fractions import Fraction

    from rootcover import Partition, chi_eigenspace_oracle, make_preset

    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    pair = make_preset(cfg["preset"], (cfg["d"], cfg["r"]))
    with open(args.csv, encoding="utf-8", newline="") as fh:
        # Repeated sub-sweep header lines read as rows with status "status".
        rows = [row for row in csv.DictReader(fh) if row["status"] == "ok"]
    errors = []
    for row in rows[args.shard :: args.shards]:
        n = int(row["n"])
        part = Partition(n, tuple(int(v) for v in row["nu"].split("+")))
        oracle = chi_eigenspace_oracle(pair, part)
        if oracle != Fraction(row["chi_rat"]):
            errors.append(f"n={n}: chi {row['chi_rat']} != eigenspace oracle {oracle}")
    _write(args.out, {"checked": len(rows[args.shard :: args.shards]), "errors": errors})
    return 0


def cmd_check_ladder(args) -> int:
    import rootcover.invariants as inv

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    errors = []
    checked = 0
    for (pair, part), (n, r, _nu) in zip(_ladder_cells(inputs), inputs["cells"]):
        if r != 3:
            continue  # no independent K^3 oracle beyond r = 3 minimal
        report = inv.invariant_report(pair, part, workloads.LADDER_STRATEGY)
        closed = inv.closed_forms_p4(workloads.LADDER_D, n, part)
        checked += 1
        if report.k3 != closed.k3:
            errors.append(f"n={n} r=3: K^3 {report.k3} != closed form {closed.k3}")
        if report.chi.chi != closed.chi:
            errors.append(f"n={n} r=3: chi {report.chi.chi} != closed form {closed.chi}")
    _write(args.out, {"checked": checked, "errors": errors})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup")
    p.add_argument("workload", choices=workloads.NAMES)
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("ladder")
    p.add_argument("inputs")
    p.add_argument("passes", type=int)
    p.add_argument("out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("sweep")
    p.add_argument("configs", nargs="+")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-sweep")
    p.add_argument("config")
    p.add_argument("csv")
    p.add_argument("shard", type=int)
    p.add_argument("shards", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_check_sweep)

    p = sub.add_parser("check-ladder")
    p.add_argument("inputs")
    p.add_argument("out")
    p.set_defaults(func=cmd_check_ladder)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
