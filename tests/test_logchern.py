import dataclasses
import json
import math
from fractions import Fraction

import pytest

from rootcover.errors import BadParams, NotDisjoint
from rootcover.logchern import (
    BasePair,
    TripleTable,
    base_pair_from_json,
    base_pair_to_json,
    log_chern_numbers,
    make_preset,
    nonsingular_cover_chern,
)


def disjoint_pair(r=2):
    """A fabricated pair with pairwise-disjoint smooth divisors."""
    return BasePair(
        r=r,
        c1_cubed=64,
        c1c2=24,
        c3=4,
        d3=(2,) * r,
        c1sq_d=(18,) * r,
        c2_d=(12,) * r,
        c1_dd=tuple(tuple(6 if j == k else 0 for k in range(r)) for j in range(r)),
        dd2=tuple(tuple(2 if j == k else 0 for k in range(r)) for j in range(r)),
        triple=TripleTable(r=r, constant=0),
        pair_curves={},
        e_d=4 * r,
        e_sing_d=0,
        label="disjoint-test",
    )


def test_preset_planes_fixtures():
    pair = make_preset("planes_p3", 3)
    assert (pair.c1_cubed, pair.c1c2, pair.c3) == (64, 24, 4)
    assert pair.e_d == 4 and pair.e_sing_d == 4
    assert pair.chi == 1
    assert pair.d3 == (1, 1, 1)
    assert pair.pair_curves[(0, 1)] == ((0, 1),)
    assert pair.h_section


def test_preset_euler_data_by_inclusion_exclusion():
    # r planes: e(D) = 3r - 2 C(r,2) + C(r,3); Sing(D) = C(r,2) lines with
    # C(r,3) triple points of concurrence
    for r in range(1, 8):
        pair = make_preset("planes_p3", r)
        assert pair.e_d == 3 * r - 2 * math.comb(r, 2) + math.comb(r, 3)
        assert pair.e_sing_d == 2 * math.comb(r, 2) - 2 * math.comb(r, 3)
    # degree-d surfaces in P^3 sections: e(S_d) = d^3 - 4d^2 + 6d,
    # e(C_d) = 2 - (d-1)(d-2) per plane curve of degree d
    for d in (2, 4, 6):
        for r in (2, 3, 5):
            pair = make_preset("hypersurface_p4", (d, r))
            e_s = d**3 - 4 * d * d + 6 * d
            e_c = 2 - (d - 1) * (d - 2)
            assert pair.e_d == r * e_s - math.comb(r, 2) * e_c + math.comb(r, 3) * d
            assert pair.e_sing_d == math.comb(r, 2) * e_c - 2 * d * math.comb(r, 3)


def test_preset_hypersurface_fixtures():
    pair = make_preset("hypersurface_p4", (6, 3))
    assert pair.chi == -4  # -d(d-5)(10+d(d-5))/24 at d = 6
    assert pair.d3 == (6, 6, 6)
    genus = (6 - 1) * (6 - 2) // 2
    assert pair.pair_curves[(0, 1)] == ((genus, 1),)
    # d = 1 specializes to the planes preset
    assert make_preset("hypersurface_p4", (1, 4)) == make_preset("planes_p3", 4)
    with pytest.raises(BadParams):
        make_preset("hypersurface_p4", (0, 3))
    with pytest.raises(BadParams):
        make_preset("planes_p3", 0)
    with pytest.raises(BadParams):
        make_preset("cubes_p5", 3)


def test_bracket_examples():
    # degree-3 pairings of the brackets D^[i_1,...,i_m] with ambient classes
    pair = make_preset("planes_p3", 3)
    assert pair.triple.total() == 1  # D^[1,1,1]
    assert pair.sum_d3() == 3  # D^[3]
    assert pair.c1c2 == 24
    assert pair.c1_cubed == 64
    assert pair.c1_d2() == 12  # c1 . D^[2]
    assert pair.c1_d11() == 12  # c1 . D^[1,1]
    assert pair.c1sq_dred() == 48  # c1^2 . D^[1]
    assert pair.c2_dred() == 18  # c2 . D^[1]
    assert pair.sum_12() == 3 and pair.sum_21() == 3  # D^[1,2], D^[2,1]


def test_bracket_trinomial_identity():
    # (sum D_j)^3 expanded over all index triples, straight from the tables
    for pair in (make_preset("planes_p3", 5), make_preset("hypersurface_p4", (4, 4))):
        r = pair.r
        direct = Fraction(0)
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    if j == k == l:
                        direct += pair.d3[j]
                    elif j == k:
                        direct += pair.dd2[l][j]  # D_j^2 D_l
                    elif j == l:
                        direct += pair.dd2[k][j]
                    elif k == l:
                        direct += pair.dd2[j][k]
                    else:
                        direct += pair.triple.get(j, k, l)
        via_brackets = (
            pair.sum_d3()
            + 3 * (pair.sum_12() + pair.sum_21())
            + 6 * pair.triple.total()
        )
        assert direct == via_brackets


def test_log_chern_planes_fixture():
    bars = log_chern_numbers(make_preset("planes_p3", 3))
    assert (bars.c1_cubed_bar, bars.c1c2_bar, bars.c3_bar) == (1, 0, 0)
    assert log_chern_numbers(make_preset("planes_p3", 6)).c1_cubed_bar == (4 - 6) ** 3


def test_log_chern_planes_closed_forms():
    # log classes on P^3 with r planes: c1_bar = (4-r)H,
    # c2_bar = (6 - r(4-r) - C(r,2)) H^2, and c3_bar = e(Z) - e(D)
    for r in range(1, 51):
        pair = make_preset("planes_p3", r)
        bars = log_chern_numbers(pair)
        assert bars.c1_cubed_bar == (4 - r) ** 3
        c2_coeff = 6 - r * (4 - r) - math.comb(r, 2)
        assert bars.c1c2_bar == (4 - r) * c2_coeff
        assert bars.c3_bar == pair.c3 - pair.e_d


def test_log_chern_hypersurface_regression():
    # c1_bar = (5-d-r)H with H^3 = d; c2_bar = (10+d(d-5) - r(5-d-r) - C(r,2))H^2
    for d in range(1, 11):
        for r in range(1, 11):
            pair = make_preset("hypersurface_p4", (d, r))
            bars = log_chern_numbers(pair)
            a = 5 - d - r
            assert bars.c1_cubed_bar == a**3 * d
            c2_coeff = 10 + d * (d - 5) - r * a - math.comb(r, 2)
            assert bars.c1c2_bar == a * c2_coeff * d
            assert bars.c3_bar == pair.c3 - pair.e_d


def test_log_chern_ratio_limits():
    # hyperplane sections: ratios approach (2, 1/3) from the r^3 / r C(r,2) shape
    prev_gap = None
    for r in (50, 100, 400):
        bars = log_chern_numbers(make_preset("hypersurface_p4", (6, r)))
        ratio1 = bars.c1_cubed_bar / bars.c1c2_bar
        ratio2 = bars.c3_bar / bars.c1c2_bar
        gap = abs(ratio1 - 2) + abs(ratio2 - Fraction(1, 3))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert gap < Fraction(1, 20)


def test_cover_chern_empty_branch():
    pair = BasePair(
        r=0, c1_cubed=64, c1c2=24, c3=4, d3=(), c1sq_d=(), c2_d=(),
        c1_dd=(), dd2=(), triple=TripleTable(r=0, constant=0),
        pair_curves={}, e_d=0, e_sing_d=0, label="no-branch",
    )
    for n in (2, 7, 31):
        assert nonsingular_cover_chern(pair, n) == (64 * n, 24 * n, 4 * n)


def test_cover_chern_residual_identity():
    # exact residual: c_e(Y)/n - c_e_bar built from the 1/n expansion terms
    pair = disjoint_pair(2)
    bars = log_chern_numbers(pair)
    d3 = Fraction(sum(pair.d3))
    c1_d2 = Fraction(pair.c1_d2())
    c1b_sq_d = Fraction(pair.c1sq_dred()) - 2 * c1_d2 + d3
    c1b_d2 = c1_d2 - d3
    c2b_d = Fraction(pair.c2_dred()) - c1_d2 + d3
    for n in (2, 3, 5, 97):
        c1c, c1c2, c3 = nonsingular_cover_chern(pair, n)
        assert c1c / n - bars.c1_cubed_bar == (
            3 * c1b_sq_d / n + 3 * c1b_d2 / n**2 + d3 / n**3
        )
        assert c1c2 / n - bars.c1c2_bar == (c1b_sq_d + c2b_d) / n + c1b_d2 / n**2
        assert c3 / n - bars.c3_bar == c2b_d / n


def test_cover_chern_rejects_crossing_divisors():
    with pytest.raises(NotDisjoint):
        nonsingular_cover_chern(make_preset("planes_p3", 3), 5)


def test_base_pair_json_roundtrip():
    for pair in (
        make_preset("planes_p3", 4),
        make_preset("hypersurface_p4", (6, 3)),
        disjoint_pair(3),
    ):
        assert base_pair_from_json(base_pair_to_json(pair)) == pair
    sparse = BasePair(
        r=3, c1_cubed=1, c1c2=24, c3=2, d3=(1, 2, 3), c1sq_d=(0, 0, 0),
        c2_d=(1, 1, 1), c1_dd=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        dd2=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        triple=TripleTable(r=3, entries={(0, 1, 2): 5}),
        pair_curves={
            (0, 1): ((2, 1), (0, 2)), (0, 2): ((1, 1),), (1, 2): ((0, 1),),
        },
        e_d=7, e_sing_d=1,
    )
    assert base_pair_from_json(base_pair_to_json(sparse)) == sparse
    for text in ('{"schema": "other/9"}', "not json", "[1, 2]",
                 '{"schema": "rootcover-basepair/1", "r": 2}'):
        with pytest.raises(BadParams):
            base_pair_from_json(text)


def test_base_pair_requires_curves_for_crossing_pairs():
    with pytest.raises(BadParams):
        BasePair(
            r=2, c1_cubed=1, c1c2=24, c3=2, d3=(1, 1), c1sq_d=(0, 0),
            c2_d=(1, 1), c1_dd=((1, 0), (0, 1)), dd2=((1, 2), (2, 1)),
            triple=TripleTable(r=2, constant=0), pair_curves={},
            e_d=4, e_sing_d=2,
        )


def test_base_pair_checks_table_shapes():
    planes = make_preset("planes_p3", 3)
    doc = json.loads(base_pair_to_json(planes))
    for name in ("c1_dd", "dd2"):
        rows = getattr(planes, name)
        for bad in (
            rows + ((1, 1, 1),),  # a fourth row
            tuple(row + (1,) for row in rows),  # a fourth column
            rows[:2],  # a missing row
            (rows[0], rows[1], rows[2][:2]),  # a short row
        ):
            with pytest.raises(BadParams, match=f"table {name} must be 3 x 3"):
                dataclasses.replace(planes, **{name: bad})
            text = json.dumps({**doc, name: [list(row) for row in bad]})
            with pytest.raises(BadParams, match=f"table {name} must be 3 x 3"):
                base_pair_from_json(text)
    with pytest.raises(BadParams, match="triple table has r = 4, pair has r = 3"):
        dataclasses.replace(planes, triple=TripleTable(r=4, constant=1))


def test_base_pair_rejects_unordered_keys():
    # the invariants index pair data by (j, k), j < k, and triples by
    # j < k < l; TripleTable.get would also miss an unordered entry
    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    for field_name, bad in (
        ("triple", {"entries": [[2, 0, 1, 1]]}),
        ("triple", {"entries": [[0, 1, 3, 1]]}),
        ("pair_curves", doc["pair_curves"] + [[1, 0, [[0, 1]]]]),
        ("pair_curves", doc["pair_curves"] + [[1, 1, [[0, 1]]]]),
    ):
        with pytest.raises(BadParams):
            base_pair_from_json(json.dumps({**doc, field_name: bad}))
    with pytest.raises(BadParams):
        TripleTable(r=3, entries={(1, 0, 2): 1})


def test_triple_table():
    t = TripleTable(r=4, constant=2)
    assert t.total() == 2 * math.comb(4, 3)
    assert t.get(3, 1, 0) == 2
    assert len(list(t.items_nonzero())) == 4
    s = TripleTable(r=4, entries={(0, 1, 2): 3})
    assert s.get(2, 1, 0) == 3 and s.get(0, 1, 3) == 0
    assert s.total() == 3
    with pytest.raises(BadParams):
        s.get(1, 1, 2)
