"""rootcover benchmark: sweep and ladder workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload sweep-search-r8 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-digests [--workload W]  # re-record digests.json

Every timed repetition runs in a fresh interpreter (``asympt`` keeps a
process-wide cache that would otherwise warm later repetitions).  The sweeps
run the real CLI through ``cellclock.py``; the ladder calls
``invariant_report`` in ``worker.py``.  With ``--trace 1`` the run instead
reports per-layer numbers from a traced single-process repetition, checked
byte for byte against an untraced one.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

RUN_SECONDS = 45
SETUP_REPS = 5
CHECK_SHARDS = 2
# A run must end within 180 s; children are killed at this deadline.
DEADLINE_S = 170

# The workloads BENCHMARK.json lists.  report-ladder runs by name only: its
# latency percentiles spread past the 25% bound on a shared 2-vCPU host in
# three of five ten-seed sets (see README.md).
WORKLOADS = (
    ("sweep-search-r8",
     "CLI sweep r=8 minimal, primes 17..1000 in 41 sub-sweeps with own seeds: the "
     "partition search (6 cells exhausted) dominates, select_v minimal is negligible"),
    ("sweep-balanced-r4",
     "CLI sweep r=4 balanced, n in 2000..3600: select_v's O(n) scan dominates, "
     "search under 1%; the only workload on the 2-process pool"),
)

# Timing bounds are the largest allowed: on a 2-vCPU guest the machine's own
# speed drifts by 20-40% over 30-60 s, which no median inside a 45 s run
# removes.  Memory and the ok share do not drift.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cell_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cell_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "cells_ok_frac", "unit": "ratio", "better": "higher", "bound": 0.02},
)

# (name, unit, better, [(workload, end-to-end metric it should move)])
SEARCH, BALANCED = (w[0] for w in WORKLOADS)
LADDER = workloads.LADDER
# The report's share of the sweeps, the search sweep's ok cells (report
# plus a search of a few trials), and the ladder's latency.
REPORT_MOVES = [(SEARCH, "cell_ms_p50"), (SEARCH, "cell_ms_p90"),
                (SEARCH, "cells_per_s"), (BALANCED, "cells_per_s"),
                (LADDER, "cell_ms_p50"), (LADDER, "cell_ms_p90")]
CELL_MOVES = [(SEARCH, "cell_ms_p50"), (LADDER, "cell_ms_p50")]
PER_LAYER = (
    ("asympt.find_asymptotic_partition.calls", "count", "lower", [(SEARCH, "cells_per_s")]),
    ("asympt.find_asymptotic_partition.s", "s", "lower", [(SEARCH, "cells_per_s")]),
    ("asympt.exhausted", "count", "lower", [(SEARCH, "cells_per_s")]),
    ("asympt.search_yield", "ratio", "higher", [(SEARCH, "cells_per_s")]),
    ("asympt.girstmair_member.calls", "count", "lower", [(SEARCH, "cells_per_s")]),
    ("toric.select_v.calls", "count", "lower", [(BALANCED, "cells_per_s")]),
    ("toric.select_v.s", "s", "lower", [(BALANCED, "cells_per_s")]),
    *((f"invariants.{name}", "s", "lower", REPORT_MOVES) for name in (
        "invariant_report.s", "chi_root_cover.s", "euler_root_cover.s",
        "chi_error_bound.s", "k3_root_cover.self_s")),
    ("hj.hj_expand.calls", "count", "lower", CELL_MOVES),
    ("hj.hj_expand.s", "s", "lower", CELL_MOVES),
    ("hj.hj_length.calls", "count", "lower", CELL_MOVES),
    ("hj.hj_length.s", "s", "lower", CELL_MOVES),
    ("dedekind.dedekind_fast.calls", "count", "lower", CELL_MOVES),
    ("dedekind.dedekind_fast.s", "s", "lower", CELL_MOVES),
    ("logchern.log_chern_numbers.calls", "count", "lower", CELL_MOVES),
    ("logchern.log_chern_numbers.s", "s", "lower", CELL_MOVES),
    ("cli.pool_busy_frac", "ratio", "higher", [(BALANCED, "cells_per_s")]),
    ("import.rootcover.s", "s", "lower",
     [(SEARCH, "setup_s"), (BALANCED, "setup_s"), (LADDER, "setup_s")]),
    ("trace.overhead", "ratio", "lower", []),
)
# Printed for the sweeps only: the ladder never enters run_sweep, so it
# would read 0 there.
SWEEP_ONLY_LAYERS = (("cli.run_sweep.self_s", "s"),)


class Run:
    """What one benchmark run attempted, what failed, and why it is incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"CHECK FAILED: {message}", flush=True)

    def check_digest(self, expected: str | None, digest: str, what: str) -> None:
        """Compare an output digest with its reference; None skips (recording)."""
        if expected is not None and digest != expected:
            self.fail(f"{what}: output digest {digest[:16]} != reference {expected[:16]}")

    @property
    def correct(self) -> bool:
        return not self.errors

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


class Child:
    """Runs Python children from the checkout root, with a shared deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("ROOTCOVER_WORKERS", None)
        self.env.update({
            "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)]),
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
        })

    def path(self, name: str) -> Path:
        return self.work / name

    def run(self, args, stdout_name=None, env=None):
        """(wall seconds, exit code, peak RSS in MB of the child and its children)."""
        out = open(self.path(stdout_name), "wb") if stdout_name else subprocess.DEVNULL
        err = open(self.path("stderr.txt"), "wb")
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)],
                cwd=ROOT, stdout=out, stderr=err, env=env or self.env,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            err.close()
            if stdout_name:
                out.close()
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def stderr_tail(self) -> str:
        lines = self.path("stderr.txt").read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def json(self, name: str):
        return json.loads(self.path(name).read_text())


def _load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def _reference(run: Run, digests: dict, workload: str, seed: int) -> str | None:
    v = str(workloads.variant(seed))
    digest = digests.get(workload, {}).get(v)
    if digest is None:
        run.fail(f"no reference digest for {workload} variant {v} (run --record-digests)")
    return digest


def _fits(elapsed: float, durations, seconds: float) -> bool:
    """Start another traced pair while none ran or one more fits."""
    return not durations or elapsed + statistics.median(durations) <= seconds


def setup(child: Child, run: Run, workload: str, seed: int, reps: int, trace: bool):
    """Untimed priming setup, then ``reps`` timed ones; returns (inputs, walls, info)."""
    walls, inputs, info = [], None, None
    for i in range(reps + 1):
        args = [BENCH / "worker.py", "setup", workload, seed, child.path("setup.json")]
        if trace and i == 0:
            args += ["--trace", child.path("setup_spans.json")]
        wall, code, _ = child.run(args)
        if code != 0:
            run.fail(f"setup exited {code}: {child.stderr_tail()}")
            return None, walls, info
        info = child.json("setup.json")
        if inputs is not None and info["inputs"] != inputs:
            run.fail("setup built different inputs from the same seed")
        inputs = info["inputs"]
        if i > 0:
            walls.append(wall)
    child.path("inputs.json").write_text(json.dumps(inputs))
    return inputs, walls, info


def _parse_sweep_csv(data: bytes):
    """(n, status) of every row of the sub-sweeps' concatenated CSVs."""
    rows = [row for row in csv.DictReader(io.StringIO(data.decode())) if row["n"] != "n"]
    return [int(row["n"]) for row in rows], [row["status"] for row in rows]


def write_configs(child: Child, configs) -> list[Path]:
    """The sub-sweep configs as files, in order."""
    paths = []
    for k, cfg in enumerate(configs):
        paths.append(child.path(f"config{k}.json"))
        paths[-1].write_text(json.dumps(cfg))
    return paths


def sweep_rep(child: Child, run: Run, cfg_paths, expected_ns, digest, workers=None):
    """One rep of the CLI sub-sweeps in a fresh interpreter.

    Returns (wall, statuses, (n, cell ms) pairs, rss, CSV bytes).
    """
    clock = child.path("cells.txt")
    clock.unlink(missing_ok=True)
    env = dict(child.env, PERFBENCH_CELL_CLOCK=str(clock))
    args = [BENCH / "cellclock.py"]
    if workers is not None:
        args += ["--workers", workers]
    wall, code, rss = child.run(args + cfg_paths, "sweep.csv", env=env)
    cells = len(expected_ns)
    run.attempted += cells
    if code not in (0, 2):
        run.failed += cells
        run.fail(f"sweep exited {code}, all {cells} cells failed: {child.stderr_tail()}")
        return wall, None, [], rss, None
    data = child.path("sweep.csv").read_bytes()
    run.check_digest(digest, hashlib.sha256(data).hexdigest(), "sweep CSV")
    ns, statuses = _parse_sweep_csv(data)
    if ns != expected_ns:
        run.fail(f"sweep reported cells {ns[:5]}... instead of the primes in range")
    run.failed += sum(s.startswith("error:") or s == "incompatible" for s in statuses)
    if (code == 2) != any(s != "ok" for s in statuses):
        run.fail(f"sweep exit code {code} disagrees with its statuses")
    cell_ms = []
    if clock.exists():
        cell_ms = [(int(n), float(ms)) for n, ms in
                   (line.split() for line in clock.read_text().splitlines())]
    if sorted(n for n, _ in cell_ms) != expected_ns:
        run.fail(f"cell clock saw {len(cell_ms)} cells, expected {cells}")
    return wall, statuses, cell_ms, rss, data


def check_sweep(child: Child, run: Run, cfg_path: Path, csv_name: str) -> None:
    """chi of every ok cell against the eigenspace oracle, on CHECK_SHARDS processes."""
    procs = []
    for shard in range(CHECK_SHARDS):
        out = child.path(f"check{shard}.json")
        procs.append((out, subprocess.Popen(
            [sys.executable, BENCH / "worker.py", "check-sweep", cfg_path,
             child.path(csv_name), str(shard), str(CHECK_SHARDS), out],
            cwd=ROOT, env=child.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )))
    checked = 0
    for out, proc in procs:
        try:
            _, err = proc.communicate(timeout=max(1.0, child.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            run.fail("chi oracle check timed out")
            continue
        if proc.returncode != 0:
            run.fail(f"chi oracle check exited {proc.returncode}: {err.decode()[-300:]}")
            continue
        doc = json.loads(out.read_text())
        checked += doc["checked"]
        for message in doc["errors"]:
            run.fail(message)
    print(f"  check: chi == eigenspace oracle on {checked} ok cells", flush=True)


def _cell_metrics(fastest: dict, calls: int) -> dict:
    """p50/p90 over the cells of each cell's fastest call in the run."""
    cell_ms = list(fastest.values())
    p = stats.highest_percentile(len(cell_ms))
    print(f"  cell latency: fastest of {calls} timed calls for each of "
          f"{len(cell_ms)} cells; highest percentile with "
          f">={stats.MIN_BEYOND} cells beyond: p{p}", flush=True)
    if p is None or p < 90:
        return {}
    return {
        "cell_ms_p50": stats.percentile(cell_ms, 50),
        "cell_ms_p90": stats.percentile(cell_ms, 90),
    }


def sweep_timed(child, run, workload, seed, seconds, digests):
    inputs, setup_walls, info = setup(child, run, workload, seed, SETUP_REPS, False)
    if inputs is None:
        return {}, info
    cfg_paths = write_configs(child, inputs["configs"])
    expected_ns = workloads.sweep_cells(inputs["configs"])
    digest = _reference(run, digests, workload, seed)
    walls, rates, cell_ms, statuses, rss = [], [], [], [], 0.0
    for _ in range(workloads.repetitions(workload, seconds)):
        wall, st, ms, peak, data = sweep_rep(child, run, cfg_paths, expected_ns, digest)
        walls.append(wall)
        rss = max(rss, peak)
        if st is None:
            break
        rates.append(len(st) / wall)
        statuses += st
        cell_ms += ms
        if len(walls) == 1:
            shutil.copyfile(child.path("sweep.csv"), child.path("first.csv"))
    print(f"  {len(walls)} timed sweeps, wall s: {[round(w, 3) for w in walls]}", flush=True)
    if not rates:
        return {}, info
    check_sweep(child, run, cfg_paths[0], "first.csv")
    ok = statuses.count("ok")
    print(f"  cells: {len(statuses)} attempted, {ok} ok, "
          f"{statuses.count('exhausted')} exhausted; cells_failed_frac = "
          f"{(len(statuses) - ok) / len(statuses)!r}", flush=True)
    print(f"  cells_per_s spread (IQR/median over sweeps) = {stats.iqr_share(rates):.4f}")
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "cells_per_s": max(rates),
        **_cell_metrics(stats.fastest(cell_ms), len(cell_ms)),
        "peak_rss_mb": rss,
        "cells_ok_frac": ok / len(statuses),
    }
    return metrics, info


def ladder_rep(child, run, digest, passes, trace=False):
    args = [BENCH / "worker.py", "ladder", child.path("inputs.json"), passes,
            child.path("ladder.json")]
    if trace:
        args += ["--trace", child.path("rep_spans.json")]
    wall, code, rss = child.run(args)
    if code != 0:
        run.fail(f"ladder worker exited {code}: {child.stderr_tail()}")
        return wall, None, rss
    doc = child.json("ladder.json")
    run.check_digest(digest, doc["digest"], "ladder reports")
    if doc["mismatches"]:
        run.fail(f"{doc['mismatches']} timed reports differ from the warm-up pass")
    return wall, doc, rss


def check_ladder(child, run) -> None:
    code = child.run([BENCH / "worker.py", "check-ladder", child.path("inputs.json"),
                      child.path("check.json")])[1]
    if code != 0:
        run.fail(f"closed-form check exited {code}: {child.stderr_tail()}")
        return
    doc = child.json("check.json")
    for message in doc["errors"]:
        run.fail(message)
    print(f"  check: K^3 and chi == closed forms on {doc['checked']} r=3 cells", flush=True)


def ladder_timed(child, run, workload, seed, seconds, digests):
    inputs, setup_walls, info = setup(child, run, workload, seed, SETUP_REPS, False)
    if inputs is None:
        return {}, info
    rungs = collections.Counter(tuple(c[:2]) for c in inputs["cells"])
    print(f"  ladder cells per (n, r): {dict(rungs)}; "
          f"dropped (exhausted): {inputs['dropped']}", flush=True)
    digest = _reference(run, digests, workload, seed)
    walls, rates, cell_ms, rss = [], [], [], 0.0
    for _ in range(workloads.repetitions(workload, seconds)):
        wall, doc, peak = ladder_rep(child, run, digest, workloads.LADDER_PASSES)
        walls.append(wall)
        rss = max(rss, peak)
        run.attempted += len(inputs["cells"]) * workloads.LADDER_PASSES
        if doc is None:
            run.failed += len(inputs["cells"]) * workloads.LADDER_PASSES
            break
        calls = [(i, ms) for i, per_cell in enumerate(doc["samples_ms"]) for ms in per_cell]
        rates.append(len(calls) / doc["timed_s"])
        cell_ms += calls
    print(f"  {len(walls)} ladder workers x {workloads.LADDER_PASSES} timed passes, "
          f"wall s: {[round(w, 3) for w in walls]}", flush=True)
    if not rates:
        return {}, info
    check_ladder(child, run)
    print(f"  cells_per_s spread (IQR/median over workers) = {stats.iqr_share(rates):.4f}")
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "cells_per_s": max(rates),
        **_cell_metrics(stats.fastest(cell_ms), len(cell_ms)),
        "peak_rss_mb": rss,
        "cells_ok_frac": 1.0,  # every timed call returned the warm-up report
    }
    return metrics, info


def _merge(*summaries) -> dict:
    layers, counts = {}, {}
    for doc in summaries:
        for name, (calls, total, own) in doc["layers"].items():
            c, t, o = layers.get(name, (0, 0.0, 0.0))
            layers[name] = (c + calls, t + total, o + own)
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"layers": layers, "counts": counts}


def layer_metrics(summary, import_s, cell_span, busy_denominator_s, overhead) -> dict:
    """Per-layer metrics from a merged trace summary (see PER_LAYER)."""
    layers, counts = summary["layers"], summary["counts"]
    fields = {"calls": 0, "s": 1, "self_s": 2}
    search = "asympt.find_asymptotic_partition"
    searches = layers.get(search, (0,))[0]
    misses = sum(n for key, n in counts.items() if key.startswith(search + "!"))
    out = {
        "asympt.exhausted": counts.get(search + "!Exhausted", 0),
        "asympt.search_yield": (searches - misses) / searches if searches else 0.0,
        "asympt.girstmair_member.calls": counts.get("asympt.girstmair_member", 0),
        "cli.pool_busy_frac": layers.get(cell_span, (0, 0.0))[1] / busy_denominator_s,
        "import.rootcover.s": import_s,
        "trace.overhead": overhead,
    }
    for name, *_ in PER_LAYER:
        if name not in out:
            layer, _, field = name.rpartition(".")
            out[name] = layers.get(layer, (0, 0.0, 0.0))[fields[field]]
    if "cli.run_sweep" in layers:
        out["cli.run_sweep.self_s"] = layers["cli.run_sweep"][2]
    return out


def traced(child, run, workload, seed, seconds, digests):
    """Per-layer metrics: pairs of (untraced, traced) repetitions, medians.

    The traced repetition runs in one process (the balanced sweep's pool is
    replaced by one worker, and also timed untraced with one worker for the
    overhead ratio); its output must match the reference bytes.  The traced
    set-up process is merged into every pair, so the ladder's partition
    search shows in the asympt layer.
    """
    inputs, _, info = setup(child, run, workload, seed, 0, True)
    if inputs is None:
        return {}, info
    setup_spans = child.json("setup_spans.json")
    digest = _reference(run, digests, workload, seed)
    per_pair, durations, summary = [], [], None
    start = time.perf_counter()
    while _fits(time.perf_counter() - start, durations, seconds):
        pair_start = time.perf_counter()
        if workload == workloads.LADDER:
            cells = len(inputs["cells"]) * workloads.LADDER_PASSES
            wall, doc, _ = ladder_rep(child, run, digest, workloads.LADDER_PASSES)
            t_wall, t_doc, _ = ladder_rep(child, run, digest, workloads.LADDER_PASSES, True)
            run.attempted += 2 * cells
            if doc is None or t_doc is None:
                run.failed += cells * ((doc is None) + (t_doc is None))
                break
            workers, wall_1 = 1, wall
            cell_span = "invariants.invariant_report"
        else:
            cfg_paths = write_configs(child, inputs["configs"])
            ns = workloads.sweep_cells(inputs["configs"])
            workers = inputs["configs"][0]["workers"]
            wall, st, _, _, data = sweep_rep(child, run, cfg_paths, ns, digest)
            if st is None:
                break
            wall_1 = wall
            if workers > 1:
                wall_1, st, _, _, _ = sweep_rep(child, run, cfg_paths, ns, digest, 1)
                if st is None:
                    break
            t_wall, code, _ = child.run(
                [BENCH / "worker.py", "sweep", *cfg_paths,
                 "--trace", child.path("rep_spans.json")],
                "traced.csv",
            )
            run.attempted += len(ns)
            if code not in (0, 2):
                run.failed += len(ns)
                run.fail(f"traced sweep exited {code}: {child.stderr_tail()}")
                break
            if child.path("traced.csv").read_bytes() != data:
                run.fail("traced sweep output differs from the untraced output")
            cell_span = "cli.cell"
        summary = _merge(setup_spans, child.json("rep_spans.json"))
        per_pair.append(layer_metrics(
            summary, info["import_s"], cell_span, workers * wall, t_wall / wall_1
        ))
        durations.append(time.perf_counter() - pair_start)
    print(f"  {len(per_pair)} traced repetitions", flush=True)
    if not per_pair:
        return {}, info
    ranked = sorted(((own, name) for name, (_, _, own) in summary["layers"].items()),
                    reverse=True)
    print("  largest self times (last traced repetition): "
          + ", ".join(f"{name} {own:.3f} s" for own, name in ranked[:4]), flush=True)
    return {name: statistics.median([m[name] for m in per_pair]) for name in per_pair[0]}, info


def _git_sha() -> str:
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return "none (src sha256 " + tree.hexdigest()[:16] + ")"


def _scratch() -> tempfile.TemporaryDirectory:
    """A fresh scratch directory under the checkout's .bench_build/."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=build, prefix="perfbench-")


def run_workload(workload: str, seed: int, seconds: int, trace: bool, digests: dict):
    run = Run()
    with _scratch() as tmp:
        child = Child(Path(tmp), time.monotonic() + DEADLINE_S)
        print(f"== {workload} seed={seed} variant={workloads.variant(seed)} "
              f"seconds={seconds} trace={int(trace)}", flush=True)
        if trace:
            metrics, info = traced(child, run, workload, seed, seconds, digests)
        elif workload == workloads.LADDER:
            metrics, info = ladder_timed(child, run, workload, seed, seconds, digests)
        else:
            metrics, info = sweep_timed(child, run, workload, seed, seconds, digests)
    if info:
        print(f"  env: nproc={os.cpu_count()} python={info['python']} "
              f"sympy={info['sympy']} git={_git_sha()}", flush=True)
    names = ([name for name, *_ in PER_LAYER] if trace
             else [m["name"] for m in END_TO_END])
    units = {name: unit for name, unit, *_ in PER_LAYER}
    units.update(SWEEP_ONLY_LAYERS)
    units.update((m["name"], m["unit"]) for m in END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    missing = [name for name in names if name not in metrics]
    if missing:
        run.fail(f"metrics not measured: {missing}")
    result = run.result({
        name: {"value": metrics[name], "unit": units[name]}
        for name in names if name in metrics
    })
    return run, result


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    for name, _unit, _better, moves in PER_LAYER:
        target = ", ".join(f"{m} on {w}" for w, m in moves) or "(no end-to-end metric)"
        print(f"{name:42} -> {target}")


def record_digests(names) -> int:
    """Run every variant once, check it with the oracles, store its digest."""
    recorded: dict = _load_digests()
    failed = False
    for workload in names:
        recorded[workload] = {}
        for v in range(workloads.VARIANTS):
            run = Run()
            with _scratch() as tmp:
                child = Child(Path(tmp), time.monotonic() + 600)
                inputs, _, _ = setup(child, run, workload, v, 0, False)
                if inputs is None:
                    digest = None
                elif workload == workloads.LADDER:
                    _, doc, _ = ladder_rep(child, run, None, 0)
                    check_ladder(child, run)
                    print(f"  {len(inputs['cells'])} cells, dropped {inputs['dropped']}")
                    digest = doc and doc["digest"]
                else:
                    cfg_paths = write_configs(child, inputs["configs"])
                    ns = workloads.sweep_cells(inputs["configs"])
                    _, st, _, _, data = sweep_rep(child, run, cfg_paths, ns, None)
                    check_sweep(child, run, cfg_paths[0], "sweep.csv")
                    digest = data and hashlib.sha256(data).hexdigest()
                    print(f"  statuses: {sorted(set(st or []))}, "
                          f"not ok: {[n for n, s in zip(ns, st or []) if s != 'ok']}")
            if digest is None or not run.correct:
                failed = True
                continue
            recorded[workload][str(v)] = digest
            print(f"{workload} variant {v}: {digest}", flush=True)
    if failed:
        print("not recording: a variant failed its check", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "rootcover" / "__init__.py").is_file():
        print(f"rootcover sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_spec:
        write_spec()
        return 0
    if args.record_digests:
        if args.workload in (None, "all"):
            return record_digests(workloads.NAMES)
        return record_digests([args.workload])
    if args.workload is None:
        parser.error("--workload is required")

    digests = _load_digests()
    if args.workload == "all":
        plan = [(w, t) for w in workloads.NAMES for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    code = 0
    for workload, trace in plan:
        run, result = run_workload(workload, args.seed, args.seconds, trace, digests)
        print(json.dumps(result), flush=True)
        if not run.correct:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
