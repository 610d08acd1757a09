import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rootcover.cli as cli
from rootcover.cli import _CSV_COLUMNS, _load_config, build_parser, main, run_sweep
from rootcover.errors import BadParams, CertificationError, ConfigError

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, **overrides):
    cfg = {
        "preset": "planes_p3",
        "r": 3,
        "n_min": 7,
        "n_max": 7,
        "partition": "1,2,4",
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_hj_command(capsys):
    assert main(["hj", "7", "5"]) == 0
    out = capsys.readouterr().out
    assert "[2, 2, 3]" in out and "q' = 3" in out


def test_dedekind_command(capsys):
    assert main(["dedekind", "1", "5", "7", "--check"]) == 0
    out = capsys.readouterr().out
    assert "-1/14" in out and "agrees" in out


def test_girstmair_command(capsys):
    assert main(["girstmair", "17"]) == 0
    assert "|O_17| = 15" in capsys.readouterr().out


def test_partition_command(capsys):
    assert main(["partition", "101", "3", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nu =")


@pytest.mark.parametrize(
    "golden, args",
    [
        ("partition_1000000000000000009_8_seed1", ["1000000000000000009", "8", "--seed", "1"]),
        # rejects about half of its SplitMix64 words
        ("partition_9223372036854775837_8_seed0", ["9223372036854775837", "8", "--seed", "0"]),
        # ok after 4335 samples
        ("partition_53_8_seed0_trials50000", ["53", "8", "--seed", "0", "--trials", "50000"]),
    ],
)
def test_partition_goldens(capsys, golden, args):
    assert main(["partition", *args]) == 0
    assert capsys.readouterr().out == (DATA / f"{golden}.txt").read_text()


def test_partition_exhausted_exits_1(capsys):
    assert main(["partition", "47", "8"]) == 1
    assert "Exhausted" in capsys.readouterr().err


def test_resolve_command(capsys):
    assert main(["resolve", "7", "5", "3", "--table"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "rootcover-resolve/1"
    assert doc["resolution"]["walls"]["13"]["ks"] == [3, 2, 2]
    assert doc["intersections"]["F3"] == "7/1"


def test_resolve_degenerate_exits_nonzero(capsys):
    assert main(["resolve", "7", "3", "3"]) == 1
    assert "Degenerate" in capsys.readouterr().err
    # one cone of each excluded shape: edge, equal, opposite
    for cone in (("7", "6", "2"), ("7", "3", "3"), ("7", "2", "5")):
        for strategy in ("minimal", "balanced"):
            assert main(["resolve", *cone, "--strategy", strategy]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: Degenerate: excluded cone shape {")
            assert captured.out == ""


def test_invariants_command(capsys):
    assert main([
        "invariants", "--preset", "planes_p3", "--params", "3",
        "--n", "7", "--nu", "1,2,4",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == "1/1" and doc["k3"] == "-14/1" and doc["euler"] == "18/1"
    assert doc["slopes"] == ["7/12", "3/4"]


def test_sweep_fixture_row(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(_CSV_COLUMNS)
    row = lines[1].split(",")
    assert row[:5] == ["7", "1", "3", "1+2+4", "ok"]
    cols = dict(zip(_CSV_COLUMNS, row))
    assert cols["chi_rat"] == "1/1" and cols["K3_rat"] == "-14/1"
    assert cols["slope1_rat"] == "7/12" and cols["slope2_rat"] == "3/4"
    assert cols["chi"] == "1.000000"
    # exact twins round-trip losslessly
    num, den = cols["chi_err_bound_rat"].split("/")
    assert Fraction(int(num), int(den)) > 0


def test_sweep_deterministic(tmp_path):
    path = write_config(
        tmp_path, n_min=17, n_max=31, partition="asymptotic", seed=5
    )
    first = run_sweep(_load_config(str(path)))
    second = run_sweep(_load_config(str(path)))
    assert first == second


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    # sum(nu) != 0 mod 11 makes the n = 11 row incompatible
    path = write_config(tmp_path, n_min=7, n_max=11)
    assert main(["sweep", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert "incompatible" in lines[2]


def test_sweep_json_envelope(tmp_path, capsys):
    path = write_config(tmp_path, format="json")
    assert main(["sweep", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "rootcover-report/1"
    assert doc["rows"][0]["status"] == "ok"
    assert doc["rows"][0]["report"]["k3"] == "-14/1"


def test_sweep_output_file(tmp_path):
    out_file = tmp_path / "rows.csv"
    path = write_config(tmp_path, output=str(out_file))
    assert main(["sweep", "--config", str(path)]) == 0
    assert out_file.read_text().startswith(",".join(_CSV_COLUMNS))


def test_sweep_csv_golden(tmp_path):
    # byte-for-byte regression of the CSV surface
    path = write_config(tmp_path, n_min=7, n_max=13, partition="1,2,4")
    text, code = run_sweep(_load_config(str(path)))
    assert code == 2  # 11 and 13 reject the explicit partition
    golden = Path(__file__).parent / "data" / "sweep_planes3_7_13.csv"
    assert text == golden.read_text()


@pytest.mark.parametrize(
    "name, golden_ext, exit_code",
    [
        # r = 8 minimal: six primes exhaust the search, the rest are ok
        ("sweep_p4d6_r8_17_211", "csv", 2),
        # r = 4 balanced over 2003..2129
        ("sweep_p4d6_r4_balanced_2003_2129", "json", 0),
        # r = 4 balanced at n near 10^12, where the lattice lines of a cone
        # are far apart
        ("sweep_p4d6_r4_balanced_1000000000000_1000000002000", "csv", 0),
    ],
)
def test_sweep_goldens(name, golden_ext, exit_code):
    # byte-for-byte regression of search, r >= 4 and balanced cells
    data = Path(__file__).parent / "data"
    text, code = run_sweep(_load_config(str(data / f"{name}.cfg.json")))
    assert code == exit_code
    assert text == (data / f"{name}.{golden_ext}").read_text()


def test_sweep_modulus_two_row(tmp_path):
    # chi has no Dedekind sums modulo 2: the row is a BadInput, not a cone error
    path = write_config(tmp_path, r=4, n_min=2, n_max=2, partition="1,1,1,1")
    text, code = run_sweep(_load_config(str(path)))
    assert code == 2
    assert text.splitlines()[1].startswith("2,1,4,1+1+1+1,error:BadInput,")


@pytest.mark.parametrize("partition", ["1,two,4", "asymptotc", ""])
def test_malformed_sweep_partition_is_a_config_error(tmp_path, capsys, partition):
    # the partition is parsed once, before any cell runs; a config built by
    # hand (not read from a file) is checked too
    path = write_config(tmp_path, n_min=7, n_max=31, partition=partition)
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: cannot parse multiplicities {partition!r}" in captured.err
    with pytest.raises(ConfigError):
        run_sweep({**_load_config(str(path)), "workers": 2})


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": "planes_p3", "r": 3, "n_min": 7, "n_max": 7, "zzz": 1}')
    assert main(["sweep", "--config", str(bad)]) == 1
    with pytest.raises(ConfigError):
        _load_config(str(bad))
    bad.write_text('{"preset": "planes_p3", "r": 3, "n_min": 9, "n_max": 7}')
    assert main(["sweep", "--config", str(bad)]) == 1
    bad.write_text('{"r": 3, "n_min": 7, "n_max": 7}')
    assert main(["sweep", "--config", str(bad)]) == 1
    bad.write_text("not json")
    assert main(["sweep", "--config", str(bad)]) == 1
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["sweep", "--config", str(bad)]) == 1


PLANES_CONFIG = {"preset": "planes_p3", "r": 3, "n_min": 7, "n_max": 7}


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "config must be a flat JSON object"),
        ({**PLANES_CONFIG, "r": "3"}, "config key 'r' must be int"),
        ({"preset": "planes_p3", "r": 3, "n_max": 7}, "config needs n_min"),
        ({**PLANES_CONFIG, "format": "xml"}, "unknown format 'xml'"),
        ({**PLANES_CONFIG, "strategy": "mini"}, "unknown strategy 'mini'"),
        ({"preset": "p5", "n_min": 7, "n_max": 7}, "unknown preset 'p5'"),
        ({"preset": "hypersurface_p4", "r": 3, "n_min": 7, "n_max": 7},
         "hypersurface_p4 needs d and r"),
    ],
)
def test_sweep_config_error_message(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_run_sweep_fills_in_and_checks_a_config_built_by_hand(tmp_path):
    # the defaults and the checks of a config file, with the CLI's message
    cfg = {**PLANES_CONFIG, "n_max": 13}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_sweep(cfg) == run_sweep(_load_config(str(path)))
    with pytest.raises(ConfigError, match=r"^unknown strategy 'mini'$"):
        run_sweep({**_load_config(str(path)), "strategy": "mini"})


def test_sweep_records_certification_failure(tmp_path, monkeypatch):
    real_report = cli.invariant_report

    def report(pair, part, strategy):
        if part.n == 19:
            raise CertificationError("forced")
        return real_report(pair, part, strategy)

    monkeypatch.setattr(cli, "invariant_report", report)
    path = write_config(tmp_path, n_min=17, n_max=31, partition="asymptotic", seed=5)
    text, code = run_sweep(_load_config(str(path)))
    assert code == 2
    rows = [row.split(",") for row in text.strip().split("\n")[1:]]
    status = {row[0]: row[4] for row in rows}
    assert status.pop("19") == "error:CertificationError"
    assert set(status.values()) == {"ok"}


@pytest.mark.parametrize("content", [None, "not json", '{"schema": "rootcover-basepair/1"}'])
def test_pair_json_errors_are_config_errors(tmp_path, capsys, content):
    pair = tmp_path / "pair.json"
    if content is not None:
        pair.write_text(content)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair_json": str(pair), "n_min": 7, "n_max": 7}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot load base pair")
    assert main(["invariants", "--pair-json", str(pair), "--n", "7", "--nu", "1,2,4"]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot load base pair")


def test_pair_json_table_shape_is_config_error(tmp_path, capsys):
    from rootcover.logchern import base_pair_to_json, make_preset

    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    doc["dd2"].append([1, 1, 1])  # 4 x 3 for r = 3
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair_json": str(pair), "n_min": 7, "n_max": 7}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot load base pair")
    assert "table dd2 must be 3 x 3" in err
    assert main(["invariants", "--pair-json", str(pair), "--n", "7", "--nu", "1,2,4"]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot load base pair")


@pytest.mark.parametrize("field, bad", [
    ("d3", ["a", 1, 1]),
    ("c1_dd", [[1, 1, 1], [1, 1, "b"], [1, "b", 1]]),
    ("e_d", 4.5),
])
def test_pair_json_non_int_is_config_error(tmp_path, capsys, field, bad):
    from rootcover.logchern import base_pair_to_json, make_preset

    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    doc[field] = bad
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair_json": str(pair), "n_min": 7, "n_max": 7}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot load base pair") and "must be ints" in err
    assert "Traceback" not in err
    assert main(["invariants", "--pair-json", str(pair), "--n", "7", "--nu", "1,2,4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot load base pair")
    assert "Traceback" not in captured.err and captured.out == ""


def test_invariants_preset_params(capsys):
    assert main([
        "invariants", "--preset", "hypersurface_p4", "--params", "6",
        "--n", "7", "--nu", "1,2,4",
    ]) == 1
    assert "config error: hypersurface_p4 needs d and r" in capsys.readouterr().err
    assert main(["invariants", "--n", "7", "--nu", "1,2,4"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invariants_follows_the_sweep_pair_rules(tmp_path, capsys):
    from rootcover.logchern import base_pair_to_json, make_preset

    path = tmp_path / "pair.json"
    path.write_text(base_pair_to_json(make_preset("planes_p3", 4)))
    cell = ["--n", "7", "--nu", "1,2,4"]
    # a pair file and a preset together, as in a sweep config
    assert main(["invariants", "--pair-json", str(path), "--preset", "planes_p3", *cell]) == 1
    assert "config error: give either pair_json or a preset, not both" in (
        capsys.readouterr().err
    )
    # a --params list of the wrong length names what the preset takes
    assert main(["invariants", "--preset", "planes_p3", "--params", "3,4", *cell]) == 1
    assert "config error: planes_p3 needs r: --params r, got 3,4" in capsys.readouterr().err
    assert main(["invariants", "--preset", "hypersurface_p4", "--params", "6,3,1", *cell]) == 1
    assert "hypersurface_p4 needs d and r: --params d,r, got 6,3,1" in (
        capsys.readouterr().err
    )


def test_invariants_params_go_with_a_preset_only(tmp_path, capsys):
    from rootcover.logchern import base_pair_to_json, make_preset

    path = tmp_path / "p3.json"
    path.write_text(base_pair_to_json(make_preset("planes_p3", 3)))
    cell = ["--n", "7", "--nu", "1,2,4"]
    # a pair file takes no parameters, as a sweep config with pair_json and r
    assert main(["invariants", "--pair-json", str(path), "--params", "9,9,9", *cell]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: --params gives a preset's parameters" in captured.err
    # a preset without --params names what it takes, as a wrong-length list does
    assert main(["invariants", "--preset", "planes_p3", *cell]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: planes_p3 needs r: --params r\n"
    assert main(["invariants", "--preset", "hypersurface_p4", *cell]) == 1
    assert "hypersurface_p4 needs d and r: --params d,r\n" in capsys.readouterr().err
    # a list that is not integers is a usage error that names the flag
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--preset", "planes_p3", "--params", "3,x", *cell])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --params: expected comma-separated integers, got '3,x'" in err
    assert "lambda" not in err


def test_pair_json_with_a_key_listed_twice_is_config_error(tmp_path, capsys):
    doc = json.loads((DATA / "basepair_planes_p3_r4_sparse.json").read_text(encoding="utf-8"))
    doc["pair_curves"].append([0, 1, [[3, 2]]])
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(doc))
    assert main(["invariants", "--pair-json", str(pair), "--n", "11", "--nu", "1,2,3,5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot load base pair")
    assert "pair_curves lists (0, 1) twice" in captured.err


def test_sweep_config_with_a_key_listed_twice_is_config_error(tmp_path, capsys):
    # json.load alone keeps the last "r" and sweeps r = 4 (exit 2, one row)
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"preset": "planes_p3", "r": 3, "n_min": 7, "n_max": 7,'
        ' "partition": "1,2,4", "r": 4}'
    )
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: config lists r twice\n"


def test_invariants_from_pair_json(tmp_path, capsys):
    from rootcover.logchern import base_pair_to_json, make_preset

    path = tmp_path / "pair.json"
    path.write_text(base_pair_to_json(make_preset("planes_p3", 3)))
    assert main([
        "invariants", "--pair-json", str(path), "--n", "7", "--nu", "1,2,4",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k3"] == "-14/1"


def test_sweep_digits_flag(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--digits", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.00,-14.00,18.00" in out


@pytest.mark.parametrize("key", ["digits", "trials", "workers"])
def test_negative_config_counts_are_config_errors(tmp_path, capsys, key):
    path = write_config(tmp_path, **{key: -1})
    with pytest.raises(ConfigError):
        _load_config(str(path))
    assert main(["sweep", "--config", str(path)]) == 1
    assert f"config error: {key} must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--digits", "--workers"])
def test_negative_count_flags_are_config_errors(tmp_path, capsys, flag):
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), flag, "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {flag[2:]} must be >= 0, got -1" in captured.err


def test_zero_counts_stay_valid(tmp_path, capsys):
    path = write_config(tmp_path, partition="asymptotic", n_min=17, n_max=17, trials=0)
    assert main(["sweep", "--config", str(path), "--digits", "0", "--workers", "0"]) == 2
    assert "17,1,3,,exhausted," in capsys.readouterr().out


def test_partition_negative_trials_exits_with_message(capsys):
    assert main(["partition", "1009", "8", "--trials", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: BadInput: need max_trials >= 0, got -1" in captured.err


def test_sweep_worker_pool(tmp_path):
    path = write_config(
        tmp_path, n_min=7, n_max=31, partition="asymptotic", seed=5, workers=2
    )
    cfg = _load_config(str(path))
    parallel = run_sweep(cfg)
    cfg["workers"] = 1
    assert run_sweep(cfg) == parallel


def test_sweep_worker_pool_chunked(tmp_path):
    # 41 primes in strided shares: 21 and 20 cells on 2 workers, 14, 14 and
    # 13 on 3, so the rows come back interleaved and must be sorted by n
    path = write_config(
        tmp_path, n_min=17, n_max=211, partition="asymptotic", seed=3, workers=1
    )
    cfg = _load_config(str(path))
    serial = run_sweep(cfg)
    assert serial[0].count("\n") == 42
    for workers in (2, 3):
        cfg["workers"] = workers
        assert run_sweep(cfg) == serial


def test_sweep_workers_capped_at_the_cells(tmp_path, monkeypatch):
    # 3 primes (7, 11, 13) on 8 workers: this process and 2 children
    path = write_config(tmp_path, n_min=7, n_max=13, partition="asymptotic", seed=5)
    cfg = _load_config(str(path))
    serial = run_sweep(cfg)
    forks = []  # appended to in this process only: a child has its own copy
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    cfg["workers"] = 8
    assert run_sweep(cfg) == serial
    assert len(forks) == 2


def test_sweep_over_no_primes(tmp_path):
    # an empty range still runs on one worker: a stride of 0 would raise
    path = write_config(tmp_path, n_min=24, n_max=28, partition="asymptotic")
    cfg = _load_config(str(path))
    for workers in ({}, {"workers": 1}, {"workers": 2}):
        assert run_sweep({**cfg, **workers}) == (",".join(_CSV_COLUMNS) + "\n", 0)


def test_sweep_without_fork_runs_in_one_process(tmp_path, monkeypatch):
    path = write_config(tmp_path, n_min=7, n_max=31, partition="asymptotic", seed=5)
    cfg = _load_config(str(path))
    serial = run_sweep(cfg)
    monkeypatch.delattr(os, "fork")
    seen = []
    cell = cli._sweep_cell

    def recorded(args):
        seen.append(args[2])
        return cell(args)

    monkeypatch.setattr(cli, "_sweep_cell", recorded)
    cfg["workers"] = 2
    assert run_sweep(cfg) == serial
    assert seen == [7, 11, 13, 17, 19, 23, 29, 31]  # every cell, here


@pytest.mark.parametrize("fails_in_parent", [False, True])
def test_failed_sweep_leaves_no_process(tmp_path, monkeypatch, fails_in_parent):
    # one side of the fork raises; the other side's cells sleep, so that a
    # sweep that waited for them instead of killing them would take minutes
    path = write_config(tmp_path, n_min=7, n_max=31, partition="asymptotic", workers=3)
    cfg = _load_config(str(path))
    parent = os.getpid()
    cell = cli._sweep_cell

    def cell_or_fail(args):
        if (os.getpid() == parent) == fails_in_parent:
            raise RuntimeError("cell failed")
        if os.getpid() != parent:
            time.sleep(60)
        return cell(args)

    monkeypatch.setattr(cli, "_sweep_cell", cell_or_fail)
    start = time.monotonic()
    with pytest.raises(RuntimeError):
        run_sweep(cfg)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_unwritable_sweep_output_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    path = write_config(tmp_path, output=str(target))
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output {target}: ")
    assert "Traceback" not in captured.err


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["hj", "7", "5"])
    assert args.n == 7 and args.q == 5
    assert build_parser() is parser  # built once per process


def test_main_calls_in_one_process_match_runs_on_their_own(capsys):
    # one parser and one pair per preset serve every call: no flag, default
    # or pair cache may leak from one call into the next
    r8 = ["sweep", "--config", str(DATA / "sweep_p4d6_r8_17_211.cfg.json")]
    balanced = ["sweep", "--config", str(DATA / "sweep_p4d6_r4_balanced_2003_2129.cfg.json")]
    invariants = [
        "invariants", "--preset", "hypersurface_p4", "--params", "6,4",
        "--n", "2003", "--nu", "1,2,3,1997",
    ]
    resolve_table = ["resolve", "7", "2", "3", "--strategy", "balanced", "--table"]
    commands = [["hj", "7", "5"], invariants, resolve_table, ["resolve", "7", "2", "3"]]
    alone = {}
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "rootcover.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        alone[tuple(argv)] = proc.stdout
    goldens = {
        tuple(r8): (2, (DATA / "sweep_p4d6_r8_17_211.csv").read_text()),
        tuple(balanced): (0, (DATA / "sweep_p4d6_r4_balanced_2003_2129.json").read_text()),
    }
    sequence = [
        r8 + ["--digits", "3", "--workers", "1"], resolve_table, r8, invariants,
        ["hj", "7", "5"], balanced, ["resolve", "7", "2", "3"], r8, invariants, balanced,
    ]
    for argv in sequence:
        code = main(argv)
        out = capsys.readouterr().out
        if tuple(argv) in goldens:
            assert (code, out) == goldens[tuple(argv)], argv
        elif tuple(argv) in alone:
            assert (code, out) == (0, alone[tuple(argv)]), argv
        else:  # the r8 sweep with flags: other decimals, the same exact columns
            assert code == 2
            assert out != goldens[tuple(r8)][1]
            rats = [line.split(",")[-8:] for line in out.splitlines()]
            golden_lines = goldens[tuple(r8)][1].splitlines()
            assert rats == [line.split(",")[-8:] for line in golden_lines]


def test_build_pair_shares_a_preset_pair_and_rereads_pair_files(tmp_path):
    from rootcover.logchern import base_pair_to_json, make_preset

    pair, d = cli._build_pair({"preset": "hypersurface_p4", "d": 6, "r": 8})
    assert d == 6 and pair.label == "hypersurface_p4(d=6, r=8)"
    assert cli._build_pair({"preset": "hypersurface_p4", "d": 6, "r": 8})[0] is pair
    assert cli._build_pair({"preset": "hypersurface_p4", "d": 6, "r": 4})[0].r == 4
    assert cli._build_pair({"preset": "planes_p3", "r": 8})[0] is not pair
    # the library still builds a fresh pair on every call
    assert make_preset("hypersurface_p4", (6, 8)) is not pair
    path = tmp_path / "pair.json"
    path.write_text(base_pair_to_json(make_preset("planes_p3", 3)))
    first, d = cli._build_pair({"pair_json": str(path)})
    assert d == 0 and first.r == 3
    path.write_text(base_pair_to_json(make_preset("planes_p3", 4)))
    assert cli._build_pair({"pair_json": str(path)})[0].r == 4


@pytest.mark.parametrize("preset, good, bad", [
    ("planes_p3", {"r": 1}, {"r": True}),
    ("planes_p3", {"r": 3}, {"r": 3.0}),
    ("hypersurface_p4", {"d": 1, "r": 3}, {"d": True, "r": 3}),
    ("hypersurface_p4", {"d": 6, "r": 3}, {"d": 6, "r": 3.0}),
])
def test_build_pair_memo_keeps_refusing_bools_and_floats(preset, good, bad):
    # True == 1 and 3.0 == 3 with equal hashes: a memo keyed on the values
    # alone would hand these the pair memoised for the ints
    pair, _ = cli._build_pair({"preset": preset, **good})
    assert cli._build_pair({"preset": preset, **good})[0] is pair
    with pytest.raises(BadParams):
        cli._build_pair({"preset": preset, **bad})
    # a hand-built sweep config, as in demo 05, is checked as a config file is
    with pytest.raises(ConfigError, match=r"^config key '[dr]' must be int$"):
        run_sweep({"preset": preset, **bad, "n_min": 7, "n_max": 7, "partition": "1,2,4"})


def test_preset_refuses_another_presets_parameter(tmp_path, capsys):
    path = write_config(tmp_path, d=6)
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: planes_p3 takes r, not d\n"
    with pytest.raises(ConfigError, match="planes_p3 takes r, not d"):
        cli._build_pair({"preset": "planes_p3", "r": 3, "d": 1})


def test_partition_past_two_to_the_64_exits_with_message(tmp_path, capsys):
    # the sampler draws one 64-bit word per cut; a larger n used to hang
    assert main(["partition", "1000000000000000000117", "3", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BadInput: need n <= 2^64")
    assert "Traceback" not in captured.err
    # a sweep records it in the cell's row
    n = 10**21 + 117
    path = write_config(tmp_path, n_min=n, n_max=n, partition="asymptotic", trials=5)
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{n},1,3,,error:BadInput,")


def test_cli_import_leaves_out_sympy():
    # the runtime needs only the standard library; sympy is a test oracle
    code = "import sys, rootcover.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # the records are named tuples: start-up pays for neither module
    code = "import sys, rootcover.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_cli_import_leaves_out_the_process_pool(tmp_path):
    # a sweep forks its extra workers itself: neither CLI start-up nor a
    # sweep imports the pool machinery, and only one that forks a child
    # imports pickle and signal; only that one freezes the heap (gc.freeze)
    out = tmp_path / "out.csv"
    path = write_config(tmp_path, n_min=17, n_max=31, partition="asymptotic", output=str(out))
    code = (
        "import gc, sys\n"
        "from rootcover.cli import main\n"
        "pool = ('concurrent.futures', 'multiprocessing', 'pickle', 'signal')\n"
        "print(*[m for m in pool if m in sys.modules])\n"
        f"assert main(['sweep', '--config', {str(path)!r}, '--workers', '1']) == 0\n"
        "print(*[m for m in pool if m in sys.modules], gc.get_freeze_count() > 0)\n"
        f"assert main(['sweep', '--config', {str(path)!r}, '--workers', '2']) == 0\n"
        "print(*[m for m in pool if m in sys.modules], gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["", "False", "pickle signal True", ""]
    assert out.read_text().count("\n") == 6


def test_repeated_forking_sweeps_freeze_no_garbage():
    # each 2-worker sweep freezes the heap before it forks; the cyclic
    # garbage of the calls before is collected first, so the frozen count
    # stops growing once the caches of the first calls are built
    config = DATA / "sweep_p4d6_r4_balanced_2003_2129.cfg.json"
    code = (
        "import contextlib, gc, io\n"
        "from rootcover.cli import main\n"
        "counts = []\n"
        "for _ in range(5):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(['sweep', '--config', {str(config)!r}, '--workers', '2']) == 0\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(counts[1], counts[4])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    second, fifth = proc.stdout.split()
    assert second == fifth


def test_csv_decimal_matches_fraction_float():
    # the CSV renders decimals from the report's "num/den" strings
    import random

    rng = random.Random(12)
    for _ in range(2000):
        den = rng.randint(1, 10 ** rng.randint(1, 30))
        x = Fraction(rng.randint(-10**30, 10**30), den)
        digits = rng.randint(0, 17)
        rat = f"{x.numerator}/{x.denominator}"
        assert cli._fmt_dec(rat, digits) == f"{float(x):.{digits}f}"
    huge = f"{10**400}/3"
    assert cli._fmt_dec(huge, 6) == huge  # past the float range: exact form
