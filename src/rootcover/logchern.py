"""Intersection data of a base pair (Z, D) and its logarithmic Chern numbers.

A base pair is a smooth projective 3-fold Z together with branch divisors
D_1, ..., D_r whose reduced sum is simple normal crossing, represented purely
by numbers: Chern numbers of Z, all divisor products up to degree three,
and the curve genera of the pairwise intersections.  The Euler numbers of D
and Sing(D) follow from the tables (see ``BasePair.e_d`` and
``BasePair.e_sing_d``).  The log Chern numbers of the pair are the Chern
numbers of the log-differential sheaf; for 3-folds,

    c1_bar^3   = (c1 - D)^3,
    c1c2_bar   = c1c2 - D(c1^2 + c2) + c1(2 D^[2] + 3 D^[1,1]) - D(D^[2] + D^[1,1]),
    c3_bar     = c3 - c2 D + c1(D^[2] + D^[1,1]) - (D^[3] + D^[1,2] + D^[2,1] + D^[1,1,1]),

where D^[i_1,...,i_m] = sum_{j_1<...<j_m} D_{j_1}^{i_1} ... D_{j_m}^{i_m} and
D = D_red.  Note the cube is the honest trinomial expansion: the degree-three
divisor groups enter with minus signs.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple, Optional

from .errors import BadParams
from .exact import _is_int, require_ints

__all__ = [
    "PRESET_PARAMS",
    "TripleTable",
    "BasePair",
    "PairPlan",
    "LogChernNumbers",
    "log_chern_numbers",
    "make_preset",
    "base_pair_to_json",
    "base_pair_from_json",
]

# The parameters of each preset of make_preset, by name and in order.
PRESET_PARAMS = {"planes_p3": ("r",), "hypersurface_p4": ("d", "r")}

# BasePair's integer fields in field order, by rank: 0 a scalar, 1 a table
# of r values, 2 an r x r table.  BasePair.__new__ checks them, and
# base_pair_to_json and base_pair_from_json write and read them, from here.
_INT_FIELDS = {
    "r": 0, "c1_cubed": 0, "c1c2": 0, "c3": 0,
    "d3": 1, "c1sq_d": 1, "c2_d": 1,
    "c1_dd": 2, "dd2": 2,
}
# BasePair's integers derived from the tables: schema v1 carries them, so
# base_pair_to_json writes them and base_pair_from_json checks them.
_DERIVED_INTS = ("e_d", "e_sing_d")


def _from_json(value, rank: int):
    return value if rank == 0 else tuple(_from_json(x, rank - 1) for x in value)


def _unique_keys(name: str, items) -> dict:
    """{key: value} of the (key, value) items; BadParams names a key that
    comes twice, which a dict would keep silently as its last value."""
    table: dict = {}
    for key, value in items:
        if key in table:
            raise BadParams(f"{name} lists {key} twice")
        table[key] = value
    return table


class TripleTable(namedtuple("TripleTable", ("r", "constant", "entries"))):
    """Symmetric triple products D_j D_k D_l (j < k < l).

    Either one constant value for every triple (the uniform arrangements) or
    an explicit sparse map {(j, k, l): value}, j < k < l, that defaults to a
    new empty dict for each table; both forms appear in the JSON schema.  A
    table given both a constant and entries is BadParams.  It lists no
    triples: :meth:`items_nonzero` yields them on demand.
    """

    def __new__(cls, r: int, constant: Optional[int] = None, entries: Optional[dict] = None):
        entries = {} if entries is None else entries
        require_ints("triple r", r, error=BadParams)
        if constant is not None:
            require_ints("triple constant", constant, error=BadParams)
            if entries:
                raise BadParams("a triple table takes a constant or entries, not both")
        require_ints("triple values", *entries.values(), error=BadParams)
        for key in entries:
            require_ints("triple keys", *key, error=BadParams)
            if not (len(key) == 3 and 0 <= key[0] < key[1] < key[2] < r):
                raise BadParams(
                    f"triple key {key} must be (j, k, l) with 0 <= j < k < l < {r}"
                )
        return super().__new__(cls, r, constant, entries)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks too

    def items_nonzero(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Yield the nonzero triples ((j, k, l), D_jkl), j < k < l, in sorted order."""
        if self.constant is None:
            for key in sorted(self.entries):
                if self.entries[key]:
                    yield key, self.entries[key]
        elif self.constant:
            for key in itertools.combinations(range(self.r), 3):
                yield key, self.constant


class PairPlan(NamedTuple):
    """The sums and rows derived from a pair's tables alone, in one pass over
    its pairs (``BasePair.plan``); a constant triple table enters in closed form.

    ``brackets`` is (D^[3], D^[1,2] + D^[2,1], D^[1,1,1], c1 D^[2],
    c1 D^[1,1], c1^2 D, c2 D) with D = D_red, the sums that the log Chern
    numbers, e(Sing D) and R_1, R_2 of chi read.

    ``rows`` has one row per pair j < k, in order, meeting or not:
    (j, k, w_jk, c_jk, K_Z D_j D_k, D_j D_k^2 + D_j^2 D_k, D_j D_k^2,
    D_j^2 D_k).  w_jk = D_j D_k (D_j + D_k + K_Z) + sum_l D_jkl weights the
    Dedekind sum d(nu_j, nu_k, n) in chi, c_jk = sum_C (3 - 4 g(C))
    - sum_l D_jkl over the components C of D_j D_k weights the chain length
    s_jk in e, and the last four are the K^3 kernel's per-pair constants.
    A column that does not apply to a pair holds an exact 0.

    ``cube`` is (c1^3, c1^2 D, c1 (D^[2] + 2 D^[1,1]), D^3), the numbers
    of (K_Z + (n-1)/n D)^3 and of (c1 - D)^3, and ``e_0`` = e(D)
    - e(Sing D) - #{components C} + 3 D^[1,1,1] is the constant of e.
    """

    brackets: tuple[int, int, int, int, int, int, int]
    cube: tuple[int, int, int, int]
    e_0: int
    rows: tuple[tuple[int, int, int, int, int, int, int, int], ...]


class BasePair(namedtuple(
    "BasePair",
    ("r", "c1_cubed", "c1c2", "c3", "d3", "c1sq_d", "c2_d", "c1_dd", "dd2",
     "triple", "pair_curves", "label", "h_section"),
    defaults=("custom", False),
)):
    """All intersection-theoretic data of (Z, D) the invariants consume.

    Tables are indexed from 0.  ``c1_dd[j][k]`` is c1.D_j D_k (the diagonal is
    c1.D_j^2); ``dd2[j][k]`` is D_j.D_k^2, ordered; both are r x r.
    ``pair_curves[(j,k)]`` lists (genus, component count) for the components
    of the curve D_j.D_k; it is nonempty for every pair with a nonzero
    product (c1 D_j D_k, D_j D_k^2, D_j^2 D_k or a triple D_jkl, even when
    the triples through the pair sum to 0), or BadParams.  ``h_section``
    marks pairs whose divisors are all linearly equivalent to a single
    class H, so multiplicities must satisfy sum(nu) ~ 0 mod n.  The Euler
    numbers of D and Sing(D) are not inputs: ``e_d`` and ``e_sing_d``
    derive them.

    Everything the invariants derive from these tables alone is computed once
    per pair and kept with it (also through pickling): the ``plan`` (a
    :class:`PairPlan`, built when the pair is), which holds the bracket sums,
    the cube and one row per pair j < k with its weight in chi, its weight
    in e and the constants of the K^3 kernel; and, on first use, ``e_d``,
    ``e_sing_d``, ``chi_bound_weight``, ``log_chern``, ``log_slopes`` and
    the ``triple_rows`` of K^3.  A report then does only the work that
    depends on n and the partition.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        r = self.r
        for name, rank in _INT_FIELDS.items():
            value = getattr(self, name)
            if rank == 0:
                require_ints(name, value, error=BadParams)
                continue
            if len(value) != r or (rank == 2 and any(len(row) != r for row in value)):
                shape = f"have length {r}" if rank == 1 else f"be {r} x {r}"
                raise BadParams(f"table {name} must {shape}")
            entries = value if rank == 1 else itertools.chain.from_iterable(value)
            require_ints(f"table {name}", *entries, error=BadParams)
        if not isinstance(self.h_section, bool) or not isinstance(self.label, str):
            raise BadParams(
                f"h_section must be a bool and label a str, got {self.h_section!r}, {self.label!r}"
            )
        if self.triple.r != r:
            raise BadParams(f"triple table has r = {self.triple.r}, pair has r = {r}")
        for key, curves in self.pair_curves.items():
            require_ints("pair_curves keys", *key, error=BadParams)
            if not (len(key) == 2 and 0 <= key[0] < key[1] < r):
                raise BadParams(
                    f"pair_curves key {key} must be (j, k) with 0 <= j < k < {r}"
                )
            for curve in curves:
                if len(curve) != 2:
                    raise BadParams(f"pair_curves[{key}] entries must be (genus, count)")
                require_ints(f"pair_curves[{key}]", *curve, error=BadParams)
        for j in range(r):
            for k in range(r):
                if self.c1_dd[j][k] != self.c1_dd[k][j]:
                    raise BadParams("c1_dd must be symmetric")
        self.plan  # checks that every meeting pair has curves
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that _replace checks too

    @property
    def chi(self) -> Fraction:
        """Analytic Euler characteristic of Z: c1c2/24."""
        return Fraction(self.c1c2, 24)

    def kz_dd(self, j: int, k: int) -> int:
        """K_Z . D_j D_k = -c1 . D_j D_k."""
        return -self.c1_dd[j][k]

    @cached_property
    def e_d(self) -> int:
        """e(D) = c3 - c3_bar, since e(Z) = e(D) + e(Z - D) and c3_bar = e(Z - D)."""
        return int(self.c3 - self.log_chern.c3_bar)

    @cached_property
    def e_sing_d(self) -> int:
        """e(Sing D) = sum_{j<k} e(D_j D_k) - 2 D^[1,1,1], since each triple
        point lies on three of the curves, with e(D_j D_k) = -(K_Z + D_j
        + D_k) D_j D_k = c1 D_j D_k - D_j D_k^2 - D_j^2 D_k by adjunction."""
        _d3, dd, d111, _c1_d2, c1_d11, _c1sq_d, _c2_d = self.plan.brackets
        return c1_d11 - dd - 2 * d111

    @cached_property
    def plan(self) -> PairPlan:
        """The pair's derived numbers, in one pass over the pairs j < k (see
        :class:`PairPlan`); BadParams for a meeting pair without curves."""
        r = self.r
        keys = list(itertools.combinations(range(r), 2))
        constant = self.triple.constant
        if constant is None:
            index = {key: i for i, key in enumerate(keys)}
            through = [0] * len(keys)  # sum_l D_jkl over the triples through each pair
            on_triple = [False] * len(keys)  # a nonzero triple passes through it
            d111 = 0
            for (a, b, c), t in self.triple.items_nonzero():
                for i in (index[a, b], index[a, c], index[b, c]):
                    through[i] += t
                    on_triple[i] = True
                d111 += t
        else:  # each pair lies on r - 2 of the C(r, 3) triples
            through = [constant * (r - 2)] * len(keys)
            on_triple = [bool(constant) and r > 2] * len(keys)
            d111 = constant * math.comb(r, 3)
        c1_dd, dd2, pair_curves = self.c1_dd, self.dd2, self.pair_curves
        dd = c1_d11 = components = 0
        rows = []
        for (j, k), t, met in zip(keys, through, on_triple):
            kz, djk, dkj = -c1_dd[j][k], dd2[j][k], dd2[k][j]
            curves = pair_curves.get((j, k))
            if not curves and (kz or djk or dkj or met):
                raise BadParams(
                    f"divisors {j}, {k} meet but pair_curves[({j},{k})] is empty"
                )
            dd += djk + dkj
            c1_d11 -= kz
            c = -t
            for genus, count in curves or ():
                c += count * (3 - 4 * genus)
                components += count
            # w_jk: D_j D_k (D_j + D_k + K_Z) = D_j D_k^2 + D_j^2 D_k + K_Z D_j D_k
            rows.append((j, k, djk + dkj + kz + t, c, kz, djk + dkj, djk, dkj))
        d3, c1sq_d, c2_d = sum(self.d3), sum(self.c1sq_d), sum(self.c2_d)
        c1_d2 = sum(c1_dd[j][j] for j in range(self.r))
        # D_red^3 = D^[3] + 3 (D^[1,2] + D^[2,1]) + 6 D^[1,1,1]
        cube = (self.c1_cubed, c1sq_d, c1_d2 + 2 * c1_d11, d3 + 3 * dd + 6 * d111)
        # e(D) - e(Sing D) + 3 D^[1,1,1] - #{C}, with e(D) = c3 - c3_bar and
        # e(Sing D) as in e_sing_d, both written in the bracket sums
        e_0 = c2_d - c1_d2 - 2 * c1_d11 + d3 + 2 * dd + 6 * d111 - components
        brackets = (d3, dd, d111, c1_d2, c1_d11, c1sq_d, c2_d)
        return PairPlan(brackets, cube, e_0, tuple(rows))

    @cached_property
    def triple_rows(self) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
        """(a, b, c, D_abc, i_ab, i_ac, i_bc) for each nonzero triple a < b < c,
        in the order of ``triple.items_nonzero()``, i_jk the position of the
        pair (j, k) in ``plan.rows``; built on first use, by the K^3 kernel."""
        index = {key: i for i, key in enumerate(itertools.combinations(range(self.r), 2))}
        return tuple(
            (a, b, c, t, index[a, b], index[a, c], index[b, c])
            for (a, b, c), t in self.triple.items_nonzero()
        )

    @cached_property
    def chi_bound_weight(self) -> int:
        """sum_{j<k} |D_j D_k (D_j + D_k + K_Z)| + 3 sum_{j<k<l} |D_jkl|, the
        weight of the a-priori chi bound, from :attr:`plan` and the triples."""
        pairs = sum(abs(kz + dd) for _j, _k, _w, _c, kz, dd, _djk, _dkj in self.plan.rows)
        return pairs + 3 * sum(abs(t) for _key, t in self.triple.items_nonzero())

    @cached_property
    def log_chern(self) -> LogChernNumbers:
        """The pair's log Chern numbers, :func:`log_chern_numbers`."""
        return log_chern_numbers(self)

    @cached_property
    def log_slopes(self) -> Optional[tuple[Fraction, Fraction]]:
        """(c1^3_bar / c1c2_bar, c3_bar / c1c2_bar), None if c1c2_bar = 0."""
        bars = self.log_chern
        if not bars.c1c2_bar:
            return None
        return bars.c1_cubed_bar / bars.c1c2_bar, bars.c3_bar / bars.c1c2_bar


class LogChernNumbers(NamedTuple):
    """The log Chern numbers c1_bar^3, c1c2_bar and c3_bar of a pair, exact."""

    c1_cubed_bar: Fraction
    c1c2_bar: Fraction
    c3_bar: Fraction


def log_chern_numbers(pair: BasePair) -> LogChernNumbers:
    """The three log Chern numbers of the pair, from its plan's brackets,
    with c1_bar^3 = (c1 - D)^3 read off the plan's cube."""
    plan = pair.plan
    d3, dd, d111, c1_d2, c1_d11, c1sq_d, c2_d = plan.brackets
    c1_cubed, c1sq_dred, c1_dred2, dred_cubed = plan.cube
    c1_cubed_bar = c1_cubed - 3 * c1sq_dred + 3 * c1_dred2 - dred_cubed
    # D_red . D^[2] + D_red . D^[1,1] = D^[3] + 2 (D^[1,2] + D^[2,1]) + 3 D^[1,1,1]
    c1c2_bar = (
        pair.c1c2 - (c1sq_d + c2_d) + (2 * c1_d2 + 3 * c1_d11) - (d3 + 2 * dd + 3 * d111)
    )
    c3_bar = pair.c3 - c2_d + (c1_d2 + c1_d11) - (d3 + dd + d111)
    return LogChernNumbers(Fraction(c1_cubed_bar), Fraction(c1c2_bar), Fraction(c3_bar))


def _hypersurface_tables(d: int, r: int) -> BasePair:
    genus = (d - 1) * (d - 2) // 2
    c1h2 = (5 - d) * d
    pair_curves = {
        (j, k): ((genus, 1),) for j in range(r) for k in range(j + 1, r)
    }
    return BasePair(
        r=r,
        c1_cubed=(5 - d) ** 3 * d,
        c1c2=(5 - d) * (10 + d * (d - 5)) * d,
        c3=-d * (d * d * (d - 5) + 10 * d - 10),
        d3=(d,) * r,
        c1sq_d=((5 - d) ** 2 * d,) * r,
        c2_d=((10 + d * (d - 5)) * d,) * r,
        c1_dd=tuple((c1h2,) * r for _ in range(r)),
        dd2=tuple((d,) * r for _ in range(r)),
        triple=TripleTable(r=r, constant=d),
        pair_curves=pair_curves,
        label=f"hypersurface_p4(d={d}, r={r})" if d > 1 else f"planes_p3(r={r})",
        h_section=True,
    )


def make_preset(kind: str, params) -> BasePair:
    """Preset base pairs.

    ``planes_p3`` with params r: r planes in general position in P^3.
    ``hypersurface_p4`` with params (d, r): a smooth degree-d 3-fold in P^4
    with r general hyperplane sections (d = 1 recovers the planes preset).
    ``params`` is a sequence of exactly the ints that ``PRESET_PARAMS``
    names for ``kind``, or one int r for ``planes_p3``; anything else, or a
    value below 1, is BadParams.
    """
    keys = PRESET_PARAMS.get(kind)
    if keys is None:
        raise BadParams(f"unknown preset kind {kind!r}")
    values = (params,) if kind == "planes_p3" and _is_int(params) else params
    if not (
        isinstance(values, Sequence)
        and len(values) == len(keys)
        and all(map(_is_int, values))
    ):
        raise BadParams(f"{kind} takes params ({', '.join(keys)}) as ints, got {params!r}")
    if min(values) < 1:
        raise BadParams(f"need {' >= 1 and '.join(keys)} >= 1, got {params!r}")
    if kind == "planes_p3":
        return _hypersurface_tables(1, *values)
    return _hypersurface_tables(*values)


def base_pair_to_json(pair: BasePair) -> str:
    """Versioned JSON of the full intersection data."""
    triple: dict
    if pair.triple.constant is not None:
        triple = {"constant": pair.triple.constant}
    else:
        triple = {
            "entries": [[j, k, l, v] for (j, k, l), v in sorted(pair.triple.entries.items())]
        }
    doc = {  # tuples as lists
        name: getattr(pair, name) for name in (*_INT_FIELDS, *_DERIVED_INTS)
    }
    doc.update(
        schema="rootcover-basepair/1",
        label=pair.label,
        h_section=pair.h_section,
        triple=triple,
        pair_curves=[[j, k, curves] for (j, k), curves in sorted(pair.pair_curves.items())],
    )
    return json.dumps(doc, indent=2, sort_keys=True)


def base_pair_from_json(text: str) -> BasePair:
    """Inverse of base_pair_to_json; BadParams for text that is not a valid
    document, that repeats a name within a JSON object, a pair of
    ``pair_curves`` or a triple of ``triple.entries``, or whose ``e_d`` or
    ``e_sing_d`` disagrees with its tables."""
    try:
        doc = json.loads(text, object_pairs_hook=partial(_unique_keys, "a JSON object"))
    except json.JSONDecodeError as exc:
        raise BadParams(f"base pair is not JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "rootcover-basepair/1":
        raise BadParams(f"unsupported schema {schema!r}")
    try:
        r = doc["r"]
        tdoc = doc["triple"]
        if "constant" in tdoc:
            if "entries" in tdoc:
                raise BadParams("a triple table takes a constant or entries, not both")
            triple = TripleTable(r=r, constant=tdoc["constant"])
        else:
            entries = _unique_keys(
                "triple.entries", ((tuple(e[:3]), e[3]) for e in tdoc["entries"])
            )
            triple = TripleTable(r=r, entries=entries)
        values = {"r": r, "triple": triple}
        for name in BasePair._fields:  # the rest in field order
            if name == "pair_curves":
                values[name] = _unique_keys(name, (
                    ((j, k), tuple((g, c) for g, c in curves))
                    for j, k, curves in doc["pair_curves"]
                ))
            elif name in _INT_FIELDS and name not in values:
                values[name] = _from_json(doc[name], _INT_FIELDS[name])
        pair = BasePair(
            **values,
            label=doc.get("label", "custom"),
            h_section=doc.get("h_section", False),
        )
        for name in _DERIVED_INTS:
            value, derived = doc[name], getattr(pair, name)
            require_ints(name, value, error=BadParams)
            if value != derived:
                raise BadParams(f"{name} = {value} disagrees with the {derived} its tables give")
        return pair
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed base pair: {type(exc).__name__}: {exc}") from None
