import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from rootcover.errors import BadParams, RootcoverError
from rootcover.logchern import (
    BasePair,
    TripleTable,
    base_pair_from_json,
    base_pair_to_json,
    log_chern_numbers,
    make_preset,
)


class NotDisjoint(RootcoverError):
    """The branch divisors have nonzero pairwise products."""


class Brackets(NamedTuple):
    """The bracket sums of a pair (see :func:`bracket_sums`)."""

    d3: int  # D^[3] = sum_j D_j^3
    d12: int  # D^[1,2] = sum_{j<k} D_j D_k^2
    d21: int  # D^[2,1] = sum_{j<k} D_j^2 D_k
    d111: int  # D^[1,1,1] = sum_{j<k<l} D_j D_k D_l
    c1_d2: int  # c1 . D^[2]
    c1_d11: int  # c1 . D^[1,1]
    c1sq_d: int  # c1^2 . D
    c2_d: int  # c2 . D


def bracket_sums(pair: BasePair) -> Brackets:
    """The bracket sums straight from the pair's tables, the oracle of the
    sums ``BasePair.plan`` keeps; it never reads the plan."""
    r, dd2, c1_dd = pair.r, pair.dd2, pair.c1_dd
    pairs = list(itertools.combinations(range(r), 2))
    return Brackets(
        sum(pair.d3),
        sum(dd2[j][k] for j, k in pairs),
        sum(dd2[k][j] for j, k in pairs),
        sum(pair.triple.get(*key) for key in itertools.combinations(range(r), 3)),
        sum(c1_dd[j][j] for j in range(r)),
        sum(c1_dd[j][k] for j, k in pairs),
        sum(pair.c1sq_d),
        sum(pair.c2_d),
    )


def nonsingular_cover_chern(pair: BasePair, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Chern numbers (c1^3, c1c2, c3) of the smooth degree-n cover of (Z, D),
    the oracle of the log Chern numbers on pairs whose divisors do not meet.

    Requires pairwise-disjoint non-singular branch divisors (all cross
    products zero).  Each Chern class of the cover pulls back as
    c_e = c_e_bar + D^[1] c_{e-1}_bar / n, so the degree-3 numbers are exact
    polynomials in 1/n times the covering degree.
    """
    for j in range(pair.r):
        for k in range(pair.r):
            if j != k and (pair.c1_dd[j][k] or pair.dd2[j][k]):
                raise NotDisjoint(f"divisors {j}, {k} have nonzero products")
    if pair.triple.items_nonzero():
        raise NotDisjoint("triple products present")

    brackets = bracket_sums(pair)
    d3 = Fraction(brackets.d3)
    c1_d2 = Fraction(brackets.c1_d2)
    c1sq_d = Fraction(brackets.c1sq_d)
    c2_d = Fraction(brackets.c2_d)

    bars = log_chern_numbers(pair)
    c1b_sq_d = c1sq_d - 2 * c1_d2 + d3       # (c1 - D)^2 . D
    c1b_d2 = c1_d2 - d3                      # (c1 - D) . D^2
    c2b_d = c2_d - c1_d2 + d3                # c2_bar . D

    c1_cubed = n * (
        bars.c1_cubed_bar
        + 3 * c1b_sq_d / n
        + 3 * c1b_d2 / (n * n)
        + d3 / (n**3)
    )
    c1c2 = n * (
        bars.c1c2_bar + (c1b_sq_d + c2b_d) / n + c1b_d2 / (n * n)
    )
    c3 = n * (bars.c3_bar + c2b_d / n)
    return c1_cubed, c1c2, c3


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
    # e(C_d) = 2 - (d-1)(d-2) per plane curve of degree d; the pair derives
    # both numbers from its tables, so these hand counts are the oracle
    for d in range(1, 15):
        for r in range(1, 13):
            pair = make_preset("hypersurface_p4", (d, r))
            e_s = d**3 - 4 * d * d + 6 * d
            e_c = 2 - (d - 1) * (d - 2)
            assert pair.e_d == r * e_s - math.comb(r, 2) * e_c + math.comb(r, 3) * d
            assert pair.e_sing_d == math.comb(r, 2) * e_c - 2 * d * math.comb(r, 3)


def test_euler_data_follow_the_tables():
    # e(D) and e(Sing D) are derived, not fields, so a pair built from
    # other tables carries their values, not the old ones
    names = set(BasePair._fields)
    assert not names & {"e_d", "e_sing_d"}
    planes = make_preset("planes_p3", 4)
    assert (planes.e_d, planes.e_sing_d) == (4, 4)
    # c2.D_0 one higher adds one to e(D_0) = (c2 - c1 D_0 + D_0^2) D_0
    moved = planes._replace(c2_d=(7, 6, 6, 6))
    assert (moved.e_d, moved.e_sing_d) == (5, 4)
    # c1.D_0 D_1 one higher adds one to e(D_0 D_1) and takes one from e(D)
    moved = planes._replace(
        c1_dd=((4, 5, 4, 4), (5, 4, 4, 4), (4, 4, 4, 4), (4, 4, 4, 4))
    )
    assert (moved.e_d, moved.e_sing_d) == (3, 5)


@pytest.mark.parametrize("name", ["e_d", "e_sing_d"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_base_pair_json_checks_the_euler_data(name, delta):
    # schema v1 carries e(D) and e(Sing D); a document whose value is not
    # the one its tables give is refused, naming the field and both values
    pair = make_preset("hypersurface_p4", (6, 3))
    doc = json.loads(base_pair_to_json(pair))
    value = getattr(pair, name)
    assert doc[name] == value
    doc[name] = value + delta
    with pytest.raises(
        BadParams, match=rf"^{name} = {value + delta} disagrees with the {value} "
    ):
        base_pair_from_json(json.dumps(doc))
    del doc[name]
    with pytest.raises(BadParams, match=f"malformed base pair: KeyError: '{name}'"):
        base_pair_from_json(json.dumps(doc))


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
    brackets = bracket_sums(pair)
    assert brackets.d111 == 1  # D^[1,1,1]
    assert brackets.d3 == 3  # D^[3]
    assert pair.c1c2 == 24
    assert pair.c1_cubed == 64
    assert brackets.c1_d2 == 12  # c1 . D^[2]
    assert brackets.c1_d11 == 12  # c1 . D^[1,1]
    assert brackets.c1sq_d == 48  # c1^2 . D^[1]
    assert brackets.c2_d == 18  # c2 . D^[1]
    assert brackets.d12 == 3 and brackets.d21 == 3  # D^[1,2], D^[2,1]
    # the plan keeps D^[1,2] + D^[2,1] as one sum
    assert pair.plan.brackets == (3, 3 + 3, 1, 12, 12, 48, 18)
    # (c1^3, c1^2 D, c1 (D^[2] + 2 D^[1,1]), D_red^3 = 3 + 3 * 6 + 6 * 1)
    assert pair.plan.cube == (64, 48, 12 + 2 * 12, 27)


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
        brackets = bracket_sums(pair)
        via_brackets = (
            brackets.d3 + 3 * (brackets.d12 + brackets.d21) + 6 * brackets.d111
        )
        assert direct == via_brackets == pair.plan.cube[3]


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
        pair_curves={}, label="no-branch",
    )
    for n in (2, 7, 31):
        assert nonsingular_cover_chern(pair, n) == (64 * n, 24 * n, 4 * n)


def test_cover_chern_residual_identity():
    # exact residual: c_e(Y)/n - c_e_bar built from the 1/n expansion terms
    pair = disjoint_pair(2)
    bars = log_chern_numbers(pair)
    brackets = bracket_sums(pair)
    d3 = Fraction(brackets.d3)
    c1_d2 = Fraction(brackets.c1_d2)
    c1b_sq_d = Fraction(brackets.c1sq_d) - 2 * c1_d2 + d3
    c1b_d2 = c1_d2 - d3
    c2b_d = Fraction(brackets.c2_d) - c1_d2 + d3
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
        )


def test_base_pair_requires_curves_for_every_meeting_pair():
    # c1.D_0 D_1 != 0 alone makes the pair meet: e counts its curves (one
    # rational curve gives c_01 = 3), so a pair without them is refused
    with pytest.raises(BadParams, match=r"pair_curves\[\(0,1\)\] is empty"):
        disjoint_pair(2)._replace(c1_dd=((6, 2), (2, 6)))
    pair = disjoint_pair(2)._replace(
        c1_dd=((6, 2), (2, 6)), pair_curves={(0, 1): ((0, 1),)}
    )
    assert [row[:4] for row in pair.plan.rows] == [(0, 1, -2, 3)]
    # a pair that does not meet needs no curves, and its row is all 0
    assert disjoint_pair(2).plan.rows == ((0, 1, 0, 0, 0, 0, 0, 0),)


def test_base_pair_requires_curves_where_triples_cancel():
    # D_0 and D_1 meet only at triple points, whose products sum to 0 over
    # l (D_012 = 1, D_013 = -1): they still meet, so they need curves
    r = 4
    zeros = tuple((0,) * r for _ in range(r))
    entries = {(0, 1, 2): 1, (0, 1, 3): -1}
    pair = disjoint_pair(r)._replace(c1_dd=zeros, dd2=zeros)
    with pytest.raises(BadParams, match=r"pair_curves\[\(0,1\)\] is empty"):
        pair._replace(triple=TripleTable(r, entries=entries))
    curves = {key: ((0, 1),) for key in itertools.combinations(range(r), 2)}
    del curves[2, 3]  # the one pair no triple passes through
    met = pair._replace(triple=TripleTable(r, entries=entries), pair_curves=curves)
    assert met.plan.rows[0][:3] == (0, 1, 0)  # w_01 = 0, and still a meeting pair


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
                planes._replace(**{name: bad})
            text = json.dumps({**doc, name: [list(row) for row in bad]})
            with pytest.raises(BadParams, match=f"table {name} must be 3 x 3"):
                base_pair_from_json(text)
    with pytest.raises(BadParams, match="triple table has r = 4, pair has r = 3"):
        planes._replace(triple=TripleTable(r=4, constant=1))


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


# every integer field of the JSON document, as a path into it; the triple
# entries are a sparse table [[j, k, l, value]], a pair curve is
# [j, k, [[genus, count], ...]]
INT_FIELDS = [
    ("r",), ("c1_cubed",), ("c1c2",), ("c3",), ("e_d",), ("e_sing_d",),
    ("d3", 0), ("c1sq_d", 1), ("c2_d", 2), ("c1_dd", 0, 1), ("dd2", 2, 2),
    ("triple", "constant"), ("triple", "entries", 0, 1), ("triple", "entries", 0, 3),
    ("pair_curves", 0, 0), ("pair_curves", 1, 2, 0, 0), ("pair_curves", 2, 2, 0, 1),
]


@pytest.mark.parametrize("bad", ["a", 4.5, 3.0, True, [1]])
@pytest.mark.parametrize("path", INT_FIELDS, ids=lambda path: "/".join(map(str, path)))
def test_base_pair_fields_must_be_ints(path, bad):
    # a non-int would crash a report with a TypeError, or give a non-exact
    # "exact" result (a float e_d), so the pair refuses it when it is built
    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    if "entries" in path:
        doc["triple"] = {"entries": [[0, 1, 2, 1]]}
    base_pair_from_json(json.dumps(doc))  # the document is valid before the edit
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = bad
    with pytest.raises(BadParams):
        base_pair_from_json(json.dumps(doc))


@pytest.mark.parametrize("kind, params, golden", [
    ("planes_p3", 4, "basepair_planes_p3_r4.json"),
    ("hypersurface_p4", (6, 3), "basepair_hypersurface_p4_6_3.json"),
])
def test_base_pair_json_bytes_are_pinned(kind, params, golden):
    # the goldens hold the rootcover-basepair/1 text of two presets: the
    # writer keeps it byte for byte, and the reader gives the same pair back
    text = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    pair = make_preset(kind, params)
    assert base_pair_to_json(pair) == text
    assert base_pair_from_json(text) == pair


def test_sparse_base_pair_golden_is_the_planes_preset_with_entries():
    # CI sweeps this document against the preset: it must be the preset's
    # tables with the triple table written as entries, byte for byte
    text = (Path(__file__).parent / "data" / "basepair_planes_p3_r4_sparse.json").read_text(
        encoding="utf-8"
    )
    preset = make_preset("planes_p3", 4)
    sparse = preset._replace(triple=TripleTable(4, entries=dict(preset.triple.items_nonzero())))
    assert base_pair_to_json(sparse) == text
    pair = base_pair_from_json(text)
    assert pair == sparse and pair.triple.constant is None
    assert '"entries"' in text


@pytest.mark.parametrize("name, entry, key", [
    ("pair_curves", [0, 1, [[3, 2]]], "(0, 1)"),
    ("pair_curves", [2, 3, [[0, 1]]], "(2, 3)"),
    ("triple.entries", [0, 1, 2, 5], "(0, 1, 2)"),
    ("triple.entries", [1, 2, 3, 1], "(1, 2, 3)"),
])
def test_base_pair_json_refuses_a_key_listed_twice(name, entry, key):
    # a dict keeps the last entry of a repeated key: with [0, 1, [[3, 2]]]
    # appended to the sparse planes document, e at n = 11, nu = (1, 2, 3, 5)
    # read -83 instead of 23; a repeat with the same value is refused too
    text = (Path(__file__).parent / "data" / "basepair_planes_p3_r4_sparse.json").read_text(
        encoding="utf-8"
    )
    doc = json.loads(text)
    listed = doc["pair_curves"] if name == "pair_curves" else doc["triple"]["entries"]
    assert entry[:-1] in [row[:-1] for row in listed]  # the key is listed once already
    listed.append(entry)
    with pytest.raises(BadParams, match=rf"{name} lists {re.escape(key)} twice"):
        base_pair_from_json(json.dumps(doc))


@pytest.mark.parametrize("field", ["h_section", "c3", "triple", "constant"])
def test_base_pair_json_refuses_a_name_repeated_in_an_object(field):
    # json.loads keeps the last value of a repeated name: a second
    # "h_section": false dropped the sum(nu) ~ 0 check of a preset's document
    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    node = doc["triple"] if field == "constant" else doc
    text = json.dumps(doc)
    value = json.dumps(node[field])
    repeated = text.replace(f'"{field}": {value}', f'"{field}": {value}, "{field}": {value}', 1)
    assert repeated != text
    with pytest.raises(BadParams, match=f"a JSON object lists {field} twice"):
        base_pair_from_json(repeated)


@pytest.mark.parametrize("field, bad", [("h_section", "no"), ("h_section", 1), ("label", 5)])
def test_base_pair_flag_and_label_are_typed(field, bad):
    # a string h_section such as "no" is truthy and would demand
    # sum(nu) ~ 0 mod n of every partition
    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    doc[field] = bad
    with pytest.raises(BadParams, match="h_section must be a bool and label a str"):
        base_pair_from_json(json.dumps(doc))


@pytest.mark.parametrize("kind, params", [
    ("planes_p3", (3, 4)),
    ("planes_p3", ()),
    ("planes_p3", 3.0),
    ("planes_p3", True),
    ("planes_p3", "3"),
    ("planes_p3", None),
    ("hypersurface_p4", ("6", "3")),
    ("hypersurface_p4", (6.0, 3)),
    ("hypersurface_p4", (6, 3, 1)),
    ("hypersurface_p4", 6),
    ("hypersurface_p4", {6, 3}),
])
def test_preset_params_must_be_the_named_ints(kind, params):
    with pytest.raises(BadParams, match=f"{kind} takes params"):
        make_preset(kind, params)


def test_preset_params_forms():
    assert make_preset("planes_p3", (3,)) == make_preset("planes_p3", [3])
    assert make_preset("planes_p3", (3,)) == make_preset("planes_p3", 3)
    assert make_preset("hypersurface_p4", [6, 3]) == make_preset("hypersurface_p4", (6, 3))
    with pytest.raises(BadParams, match="need d >= 1 and r >= 1"):
        make_preset("hypersurface_p4", (6, 0))


def test_tables_are_checked_named_tuples():
    # _replace runs the constructor's checks, no field can be assigned, and
    # each table without entries gets a dict of its own
    sparse = TripleTable(r=4, entries={(0, 1, 2): 3})
    with pytest.raises(BadParams, match=r"triple key \(0, 2, 1\) must be \(j, k, l\)"):
        sparse._replace(entries={(0, 2, 1): 3})
    with pytest.raises(BadParams, match=r"triple key \(0, 1, 2\) must be"):
        sparse._replace(r=2)
    first, second = TripleTable(r=3), TripleTable(r=3)
    assert first.entries == {} and first.entries is not second.entries
    assert TripleTable._fields == ("r", "constant", "entries")
    planes = make_preset("planes_p3", 3)
    with pytest.raises(BadParams, match="table d3 must have length 3"):
        planes._replace(d3=(1, 1))
    with pytest.raises(BadParams, match="table dd2 must be 3 x 3"):
        planes._replace(dd2=planes.dd2[:2])
    assert planes._replace(label="three planes").label == "three planes"
    for record, name in ((sparse, "r"), (planes, "c3"), (planes, "label")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert BasePair(*planes) == planes == tuple(planes)


def test_triple_table_takes_a_constant_or_entries_not_both():
    # a table with both would read as the constant alone and drop its entries
    with pytest.raises(BadParams, match="constant or entries, not both"):
        TripleTable(3, constant=0, entries={(0, 1, 2): 3})
    with pytest.raises(BadParams, match="constant or entries, not both"):
        TripleTable(3, constant=2)._replace(entries={(0, 1, 2): 3})
    assert TripleTable(3, constant=2, entries={}).items_nonzero() == (((0, 1, 2), 2),)
    doc = json.loads(base_pair_to_json(make_preset("planes_p3", 3)))
    base_pair_from_json(json.dumps(doc))  # valid before the edit
    for entries in ([[0, 1, 2, 1]], []):
        doc["triple"] = {"constant": 1, "entries": entries}
        with pytest.raises(BadParams, match="constant or entries, not both"):
            base_pair_from_json(json.dumps(doc))


def test_triple_table():
    t = TripleTable(r=4, constant=2)
    assert sum(v for _key, v in t.items_nonzero()) == 2 * math.comb(4, 3)
    assert t.get(3, 1, 0) == 2
    assert len(list(t.items_nonzero())) == 4
    s = TripleTable(r=4, entries={(0, 1, 2): 3})
    assert s.get(2, 1, 0) == 3 and s.get(0, 1, 3) == 0
    assert s.items_nonzero() == (((0, 1, 2), 3),)
    with pytest.raises(BadParams):
        s.get(1, 1, 2)
