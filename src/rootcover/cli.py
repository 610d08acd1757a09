"""Command-line driver: single computations, prime sweeps, slope-map data.

Subcommands: ``hj``, ``dedekind``, ``girstmair``, ``partition``, ``resolve``,
``invariants``, ``sweep``.  Sweeps are driven by a flat key-value JSON config
(unknown keys are errors) and emit CSV or JSON rows; identical configs
produce byte-identical output.  Exit codes: 0 all cells succeeded, 2 partial
failures, 1 config errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .asympt import Partition, find_asymptotic_partition, girstmair_set
from .dedekind import dedekind_fast, dedekind_sum
from .errors import (
    BadParams,
    ConfigError,
    Exhausted,
    IncompatiblePartition,
    RootcoverError,
)
from .exact import is_prime
from .hj import hj_expand
from .invariants import _rat_str, invariant_report, report_to_json_dict
from .logchern import PRESET_PARAMS, _unique_keys, base_pair_from_json, make_preset
from .toric import (
    STRATEGIES,
    LocalConeSpec,
    cyclic_resolution,
    local_intersection_table,
    max_slope,
    resolution_to_json,
    select_v,
)

_CSV_VALUE_COLUMNS = (
    "chi",
    "K3",
    "euler",
    "slope1",
    "slope2",
    "log_slope1",
    "log_slope2",
    "chi_err_bound",
)
_CSV_COLUMNS = ("n", "d", "r", "nu", "status") + _CSV_VALUE_COLUMNS + tuple(
    c + "_rat" for c in _CSV_VALUE_COLUMNS
)

_CONFIG_KEYS = {
    "preset": str,
    "d": int,
    "r": int,
    "pair_json": str,
    "n_min": int,
    "n_max": int,
    "partition": str,
    "seed": int,
    "trials": int,
    "strategy": str,
    "format": str,
    "output": str,
    "digits": int,
    "workers": int,
}

_CONFIG_DEFAULTS = {
    "partition": "asymptotic",
    "seed": 0,
    "trials": 10000,
    "strategy": "minimal",
    "format": "csv",
    "output": "-",
    "digits": 6,
}


def _csv_rats(row: dict) -> list[str]:
    """A row's ``_CSV_VALUE_COLUMNS`` as "num/den" strings ("" if absent)."""
    report = row.get("report")
    if report is None:
        return [""] * len(_CSV_VALUE_COLUMNS)
    slopes = report["slopes"] or ["", ""]
    log_slopes = report["log_slopes"] or ["", ""]
    return [report["chi"], report["k3"], report["euler"], *slopes, *log_slopes,
            report["chi_error_bound"]]


def _fmt_dec(rat: str, digits: int) -> str:
    """A "num/den" string as a decimal, rounded as ``float(Fraction)`` is."""
    num, den = rat.split("/")
    try:
        return f"{int(num) / int(den):.{digits}f}"
    except OverflowError:
        return rat


def _parse_nu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse multiplicities {text!r}") from None


def _int_list(text: str) -> list[int]:
    """The argparse type of ``--params``: comma-separated integers."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _load_config(path: str, *, digits: int | None = None,
                 workers: int | None = None) -> dict:
    """The sweep config in ``path`` over the defaults, checked.

    ``digits`` and ``workers``, when given, replace the file's values (the
    sweep's ``--digits`` and ``--workers``) before anything is checked; see
    :func:`_checked_config`.  A key given twice is a ConfigError, not its
    last value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(
                fh, object_pairs_hook=functools.partial(_unique_keys, "config")
            )
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except BadParams as exc:
        raise ConfigError(str(exc)) from exc
    return _checked_config(raw, digits=digits, workers=workers)


def _checked_config(raw, *, digits: int | None = None,
                    workers: int | None = None) -> dict:
    """The sweep config ``raw`` over the defaults, checked; ConfigError if not.

    The one rule for a sweep config, whether read from a file or built by
    hand for :func:`run_sweep`.  ``digits`` and ``workers``, when given,
    replace the values of ``raw`` before anything is checked.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    cfg = dict(_CONFIG_DEFAULTS)
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(value, _CONFIG_KEYS[key]) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be {_CONFIG_KEYS[key].__name__}")
        cfg[key] = value
    if digits is not None:
        cfg["digits"] = digits
    if workers is not None:
        cfg["workers"] = workers
    for key in ("n_min", "n_max"):
        if key not in cfg:
            raise ConfigError(f"config needs {key}")
    if cfg["n_min"] > cfg["n_max"]:
        raise ConfigError("n_min must not exceed n_max")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg['format']!r}")
    if cfg["strategy"] not in STRATEGIES:
        raise ConfigError(f"unknown strategy {cfg['strategy']!r}")
    for key in ("trials", "digits", "workers"):
        if cfg.get(key, 0) < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    return cfg


# make_preset once per process for each (preset, params); see _build_pair
_preset_pair = functools.cache(make_preset)


def _build_pair(cfg: dict):
    """The base pair and its CSV ``d`` column (0 for a pair file).

    ``cfg`` holds either ``pair_json``, or ``preset`` and its parameters by
    name (see ``PRESET_PARAMS``); both, or neither, is a ConfigError, as is
    a pair file that cannot be read or parsed, or a parameter that another
    preset names and this one does not (``d`` next to ``planes_p3``).

    A preset's pair is built once per process and shared by every later
    call with the same parameters, so the sweeps of a driver that calls
    :func:`main` many times reuse the pair's cached tables (``log_chern``,
    ``plan``, ...).  Only plain ints are looked up: ``True == 1``
    and ``3.0 == 3`` hash alike, so any other value goes straight to
    ``make_preset``, which refuses it.  A pair file is read again on every
    call, since it may change between calls.
    """
    if "pair_json" in cfg:
        if "preset" in cfg or "d" in cfg or "r" in cfg:
            raise ConfigError("give either pair_json or a preset, not both")
        path = cfg["pair_json"]
        try:
            with open(path, encoding="utf-8") as fh:
                return base_pair_from_json(fh.read()), 0
        except (OSError, UnicodeDecodeError, BadParams) as exc:
            raise ConfigError(f"cannot load base pair {path}: {exc}") from exc
    preset = cfg.get("preset")
    if preset is None:
        raise ConfigError("need a preset or pair_json")
    if preset not in PRESET_PARAMS:
        raise ConfigError(f"unknown preset {preset!r}")
    keys = PRESET_PARAMS[preset]
    for other in PRESET_PARAMS.values():
        for key in other:
            if key in cfg and key not in keys:
                raise ConfigError(f"{preset} takes {' and '.join(keys)}, not {key}")
    if any(key not in cfg for key in keys):
        raise ConfigError(f"{preset} needs {' and '.join(keys)}")
    params = tuple(cfg[key] for key in keys)
    d = cfg["d"] if preset == "hypersurface_p4" else 1
    if all(type(value) is int for value in params):
        return _preset_pair(preset, params), d
    return make_preset(preset, params), d  # BadParams for a bool, a float, ...


def _sweep_cell(args):
    """One (n, pair) cell; never raises, reports failures in the status field.

    ``nu`` is the config's parsed partition, or None to search for one.
    """
    pair, d, n, nu, cfg = args
    row = {"n": n, "d": d, "r": pair.r, "nu": "", "status": "ok"}
    try:
        if nu is None:
            part = find_asymptotic_partition(n, pair.r, cfg["seed"], cfg["trials"])
        else:
            part = Partition(n, nu)
        row["nu"] = "+".join(str(v) for v in part.nu)
        report = invariant_report(pair, part, cfg["strategy"])
    except Exhausted:
        row["status"] = "exhausted"
        return row
    except IncompatiblePartition:
        row["status"] = "incompatible"
        return row
    except RootcoverError as exc:
        row["status"] = f"error:{type(exc).__name__}"
        return row
    row["report"] = report_to_json_dict(report)
    return row


def _sweep_child(cells: list, write_end: int) -> NoReturn:
    """A forked sweep worker: pickle the rows of ``cells`` into ``write_end``.

    It never returns: it ends with ``os._exit``, status 0 once the rows are
    written, 1 (after writing the traceback to fd 2) on any exception, so no
    code of the parent's stack runs again in the child.
    """
    status = 1
    try:
        import pickle

        rows = [_sweep_cell(cell) for cell in cells]
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(rows))
        status = 0
    except BaseException:  # KeyboardInterrupt too: the child must not return
        import traceback

        # straight to fd 2: sys.stderr may hold the parent's unwritten text
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _forked_rows(cells: list, workers: int) -> list[dict]:
    """The rows of ``cells`` on ``workers`` processes: this one and forks.

    Process ``w`` computes ``cells[w::workers]``; this one is ``w = 0``, so
    ``workers = 1`` forks nothing.  Each child pickles its rows into its own
    pipe, read here to EOF after this process's share.  A child that ends
    with a nonzero status raises RuntimeError.  Whichever side fails, every
    pipe is closed and every child reaped (killed first if still running)
    before this returns.

    Before it forks, this process moves every object it tracks into the
    collector's permanent generation (``gc.freeze``), as the ``gc`` docs
    advise for a fork without exec: no later collection scans that heap
    again, neither one in a child (whose pages it would otherwise touch and
    copy) nor this process's last one at exit.  A young-generation
    collection first frees the cyclic garbage of the calls before, which a
    freeze would otherwise keep for the life of the process.  ``workers =
    1`` freezes nothing.
    """
    children = []  # (pid, read end of its pipe)
    reaped = set()
    if workers > 1:
        gc.collect(1)
        gc.freeze()
    try:
        for w in range(1, workers):
            # only with a child: the 1-worker path and CLI start-up go without them
            import pickle
            import signal

            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _sweep_child(cells[w::workers], write_end)
            os.close(write_end)  # so that the next child does not hold it
            children.append((pid, read_end))
        rows = [_sweep_cell(cell) for cell in cells[::workers]]
        for w, (pid, read_end) in enumerate(children, 1):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code:
                raise RuntimeError(f"sweep worker {w} (pid {pid}) ended with status {code}")
            rows += pickle.loads(data)
        return rows
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_sweep(cfg: dict) -> tuple[str, int]:
    """Execute a sweep; returns (rendered output, exit code).

    ``cfg`` is a sweep config as a dict: it gets the defaults and the checks
    of a config file, so a bad value is a ConfigError with the CLI's message.
    ``workers`` (default 1, capped at the number of cells) counts this
    process: with ``workers = k`` it forks ``k - 1`` children, and process
    ``w`` computes every ``k``-th cell from the ``w``-th on.  Without
    ``os.fork`` (Windows) the sweep runs in this one process.  Rows are
    sorted by ``n``, so the output does not depend on ``workers``.  A
    ``partition`` that is neither "asymptotic" nor a list of integers is a
    ConfigError before any cell runs; one that does not fit some n fails
    that cell alone.
    """
    cfg = _checked_config(cfg)
    pair, d = _build_pair(cfg)
    nu = None if cfg["partition"] == "asymptotic" else _parse_nu(cfg["partition"])
    primes = [n for n in range(cfg["n_min"], cfg["n_max"] + 1) if is_prime(n)]
    cells = [(pair, d, n, nu, cfg) for n in primes]
    # 1 worker without os.fork, and for an empty range too: cells[::0] raises
    workers = max(1, min(cfg.get("workers") or 1, len(cells))) if hasattr(os, "fork") else 1
    rows = _forked_rows(cells, workers)
    rows.sort(key=lambda row: row["n"])
    failures = sum(row["status"] != "ok" for row in rows)

    if cfg["format"] == "json":
        out_rows = []
        for row in rows:
            doc = {"n": row["n"], "d": row["d"], "r": row["r"], "status": row["status"]}
            if row["status"] == "ok":
                doc["report"] = row["report"]
            out_rows.append(doc)
        text = json.dumps(
            {"schema": "rootcover-report/1", "rows": out_rows}, indent=2
        ) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        digits = cfg["digits"]
        for row in rows:
            record = [row["n"], row["d"], row["r"], row["nu"], row["status"]]
            rats = _csv_rats(row)
            decs = [rat and _fmt_dec(rat, digits) for rat in rats]
            writer.writerow(record + decs + rats)
        text = buf.getvalue()
    return text, (2 if failures else 0)


def _cmd_hj(args) -> int:
    e = hj_expand(args.n, args.q)
    print(f"{e.n}/{e.q} = {list(e.ks)}")
    print(f"s = {e.s}, q' = {e.q_inv}, excess = {e.excess}")
    print(f"m_seq = {list(e.m_seq)}")
    print(f"n_seq = {list(e.n_seq)}")
    return 0


def _cmd_dedekind(args) -> int:
    value = dedekind_fast(args.a, args.b, args.n)
    print(f"d({args.a},{args.b},{args.n}) = {_rat_str(value)}")
    if args.check:
        naive = dedekind_sum([args.a, args.b], args.n)
        print(f"naive = {_rat_str(naive)} ({'agrees' if naive == value else 'MISMATCH'})")
    return 0


def _cmd_girstmair(args) -> int:
    on = girstmair_set(args.n)
    print(f"|O_{args.n}| = {len(on.members)}, complement = {on.complement_size}")
    return 0


def _cmd_partition(args) -> int:
    part = find_asymptotic_partition(args.n, args.r, args.seed, args.trials)
    print("nu =", "+".join(str(v) for v in part.nu))
    for j in range(part.r):
        print(" ".join(
            "." if j == k else str(part.q_matrix[j][k]) for k in range(part.r)
        ))
    return 0


def _cmd_resolve(args) -> int:
    spec = LocalConeSpec(args.n, args.p, args.q)
    v = select_v(spec, args.strategy)
    res = cyclic_resolution(spec, v)
    doc = {
        "schema": "rootcover-resolve/1",
        "strategy": args.strategy,
        "max_slope": _rat_str(max_slope(v)),
        "resolution": json.loads(resolution_to_json(res)),
    }
    if args.table:
        tab = local_intersection_table(res)
        doc["intersections"] = {
            "F3": _rat_str(tab.f3),
            "KF2": _rat_str(tab.kf2),
            "K2F": _rat_str(tab.k2f),
            "K_Cl": {str(l): _rat_str(x) for l, x in sorted(tab.k_cl.items())},
            "K_Cjk": {
                f"{jk[0]}{jk[1]},{a}": _rat_str(x)
                for (jk, a), x in sorted(tab.k_cjk.items())
            },
        }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_invariants(args) -> int:
    # the flags as a sweep config, so the same pair rules apply
    cfg = {}
    if args.pair_json is not None:
        if args.params is not None:  # as a sweep config with pair_json and r
            raise ConfigError("--params gives a preset's parameters; a pair file takes none")
        cfg["pair_json"] = args.pair_json
    if args.preset is not None:
        cfg["preset"] = args.preset
        keys = PRESET_PARAMS[args.preset]
        params = args.params or []
        if "pair_json" not in cfg and len(params) != len(keys):
            got = f", got {','.join(map(str, params))}" if params else ""
            raise ConfigError(
                f"{args.preset} needs {' and '.join(keys)}: --params {','.join(keys)}{got}"
            )
        cfg.update(zip(keys, params))
    pair, _ = _build_pair(cfg)
    part = Partition(args.n, _parse_nu(args.nu))
    report = invariant_report(pair, part, args.strategy)
    print(json.dumps(report_to_json_dict(report), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, digits=args.digits, workers=args.workers)
    text, code = run_sweep(cfg)
    if cfg["output"] == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(cfg["output"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg['output']}: {exc}") from exc
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rootcover`` argument parser.

    It is built once per process and every :func:`main` call parses with
    it, so callers must not change the parser it returns.
    """
    parser = argparse.ArgumentParser(
        prog="rootcover",
        description="Exact invariants of cyclic resolutions of n-th root covers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", help="Hirzebruch-Jung expansion of n/q")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("dedekind", help="Dedekind sum d(a,b,n)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true", help="compare with the O(n) sum")
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("girstmair", help="size of the Girstmair set O_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_girstmair)

    p = sub.add_parser("partition", help="find an asymptotic partition")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("resolve", help="cyclic resolution of a triple-point cone")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--strategy", choices=STRATEGIES, default="minimal")
    p.add_argument("--table", action="store_true", help="include the intersection table")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("invariants", help="full invariant report of one cell")
    p.add_argument("--preset", choices=tuple(PRESET_PARAMS))
    p.add_argument(
        "--params", type=_int_list, help="r for planes_p3, d,r for hypersurface_p4"
    )
    p.add_argument("--pair-json", help="path to a base-pair JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", required=True, help="comma-separated multiplicities")
    p.add_argument("--strategy", choices=STRATEGIES, default="minimal")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("sweep", help="prime sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--digits", type=int, help="decimal places for CSV floats")
    p.add_argument(
        "--workers", type=int,
        help="processes to sweep on, this one included (default: the config's workers key, or 1)",
    )
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RootcoverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
