import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rootcover.cli as cli
from rootcover.cli import _CSV_COLUMNS, _load_config, build_parser, main, run_sweep
from rootcover.errors import CertificationError, ConfigError


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


def test_resolve_command(capsys):
    assert main(["resolve", "7", "5", "3", "--table"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "rootcover-resolve/1"
    assert doc["resolution"]["walls"]["13"]["ks"] == [3, 2, 2]
    assert doc["intersections"]["F3"] == "7/1"


def test_resolve_degenerate_exits_nonzero(capsys):
    assert main(["resolve", "7", "3", "3"]) == 1
    assert "Degenerate" in capsys.readouterr().err


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


def test_invariants_preset_params(capsys):
    assert main([
        "invariants", "--preset", "hypersurface_p4", "--params", "6",
        "--n", "7", "--nu", "1,2,4",
    ]) == 1
    assert "config error: hypersurface_p4 needs d and r" in capsys.readouterr().err
    assert main(["invariants", "--n", "7", "--nu", "1,2,4"]) == 1
    assert "config error" in capsys.readouterr().err


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
    # 41 primes on 2 workers: chunks of 5 cells, the last one short
    path = write_config(
        tmp_path, n_min=17, n_max=211, partition="asymptotic", seed=3, workers=2
    )
    cfg = _load_config(str(path))
    parallel = run_sweep(cfg)
    assert parallel[0].count("\n") == 42
    cfg["workers"] = 1
    assert run_sweep(cfg) == parallel


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["hj", "7", "5"])
    assert args.n == 7 and args.q == 5


def test_cli_import_leaves_out_sympy():
    # the runtime needs only the standard library; sympy is a test oracle
    code = "import sys, rootcover.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
