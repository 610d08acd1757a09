"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import pytest

import run
import stats
from tracer import Tracer


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("child", 1.0, 3.0, 0),
        ("grandchild", 1.5, 2.5, 1),
        ("child", 5.0, 6.0, 0),
    ]
    out = stats.self_times(spans)
    assert out["parent"] == (1, 10.0, 7.0)
    assert out["child"] == (2, 3.0, 2.0)
    assert out["grandchild"] == (1, 1.0, 1.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 5.0, 0),
        ("c", 9.0, 12.0, 0),
    ]
    assert stats.self_times(spans)["parent"][2] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_nests_spans_and_counts_exceptions():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ArithmeticError(x)
        return x

    leaf_span = tracer._span("leaf", leaf)

    def outer(x):
        return leaf_span(x) + leaf_span(x)

    outer_span = tracer._span("outer", outer)
    assert outer_span(2) == 4
    with pytest.raises(ArithmeticError):
        outer_span(-1)
    summary = tracer.summary()
    assert summary["layers"]["outer"][0] == 2
    assert summary["layers"]["leaf"][0] == 3
    calls, total, own = summary["layers"]["outer"]
    assert own <= total
    assert summary["counts"] == {"leaf!ArithmeticError": 1, "outer!ArithmeticError": 1}


def test_digest_mismatch_fails_the_run():
    bench = run.Run()
    bench.check_digest("a" * 64, "a" * 64, "sweep CSV")
    assert bench.correct
    bench.check_digest("a" * 64, "b" * 64, "sweep CSV")
    assert not bench.correct
    assert "digest" in bench.errors[0]
    assert bench.result({})["correct"] is False


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "report-ladder"]) != 0
    assert capsys.readouterr().out == ""


def test_primes_between_matches_trial_division():
    expected = [p for p in range(17, 300) if all(p % d for d in range(2, p))]
    assert run.workloads.primes_between(17, 300) == expected


def test_fastest_keeps_each_keys_smallest_value():
    assert stats.fastest([(1, 3.0), (2, 5.0), (1, 2.0), (2, 6.0)]) == {1: 2.0, 2: 5.0}


def test_sub_sweeps_cover_the_range_with_distinct_seeds():
    search = run.workloads.sweep_configs("sweep-search-r8", 3)
    base = run.workloads.SWEEPS["sweep-search-r8"]
    assert run.workloads.sweep_cells(search) == run.workloads.primes_between(
        base["n_min"], base["n_max"])
    assert all(len(run.workloads.sweep_cells([cfg])) <= 4 for cfg in search)
    seeds = [cfg["seed"] for v in range(run.workloads.VARIANTS)
             for cfg in run.workloads.sweep_configs("sweep-search-r8", v)]
    assert len(set(seeds)) == len(seeds)
    assert run.workloads.sweep_configs("sweep-search-r8", 3 + run.workloads.VARIANTS) == search
    (balanced,) = run.workloads.sweep_configs("sweep-balanced-r4", 5)
    assert balanced["seed"] == 5


def test_sub_sweep_csvs_parse_as_one_table():
    data = b"n,status\n17,exhausted\n19,ok\nn,status\n23,ok\n"
    assert run._parse_sweep_csv(data) == ([17, 19, 23], ["exhausted", "ok", "ok"])


@pytest.mark.parametrize("codes, expected, calls", [
    ([0, 0, 0], 0, 3), ([0, 2, 0], 2, 3), ([2, 1, 0], 1, 2),
])
def test_sub_sweeps_keep_the_cli_exit_code(codes, expected, calls):
    seen = []

    def cli_main(argv):
        seen.append(argv)
        return codes[len(seen) - 1]

    assert run.workloads.run_sub_sweeps(cli_main, ["a", "b", "c"], ["--workers", "1"]) == expected
    assert len(seen) == calls
    assert seen[0] == ["sweep", "--config", "a", "--workers", "1"]
