"""Intersection data of a base pair (Z, D) and its logarithmic Chern numbers.

A base pair is a smooth projective 3-fold Z together with branch divisors
D_1, ..., D_r whose reduced sum is simple normal crossing, represented purely
by numbers: Chern numbers of Z, all divisor products up to degree three,
curve genera of the pairwise intersections, and the Euler characteristics of
D and Sing(D).  The log Chern numbers of the pair are the Chern numbers of
the log-differential sheaf; for 3-folds,

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import BadParams, NotDisjoint

__all__ = [
    "TripleTable",
    "BasePair",
    "LogChernNumbers",
    "log_chern_numbers",
    "nonsingular_cover_chern",
    "make_preset",
    "base_pair_to_json",
    "base_pair_from_json",
]


@dataclass(frozen=True)
class TripleTable:
    """Symmetric triple products D_j D_k D_l (j < k < l).

    Either one constant value for every triple (the uniform arrangements) or
    an explicit sparse map; both forms appear in the JSON schema.
    """

    r: int
    constant: Optional[int] = None
    entries: dict = field(default_factory=dict)  # {(j,k,l): value}, j<k<l

    def __post_init__(self):
        for key in self.entries:
            if not (len(key) == 3 and 0 <= key[0] < key[1] < key[2] < self.r):
                raise BadParams(
                    f"triple key {key} must be (j, k, l) with 0 <= j < k < l < {self.r}"
                )

    def get(self, j: int, k: int, l: int) -> int:
        key = tuple(sorted((j, k, l)))
        if len(set(key)) != 3:
            raise BadParams(f"triple indices must be distinct, got {key}")
        if self.constant is not None:
            return self.constant
        return self.entries.get(key, 0)

    def items_nonzero(self) -> tuple[tuple[tuple[int, int, int], int], ...]:
        """The nonzero triples ((j, k, l), D_jkl), j < k < l, in sorted order."""
        return self._nonzero

    @cached_property
    def _nonzero(self) -> tuple[tuple[tuple[int, int, int], int], ...]:
        if self.constant is not None:
            if not self.constant:
                return ()
            return tuple(
                (key, self.constant)
                for key in itertools.combinations(range(self.r), 3)
            )
        return tuple(
            (key, self.entries[key]) for key in sorted(self.entries) if self.entries[key]
        )

    def total(self) -> int:
        if self.constant is not None:
            return self.constant * math.comb(self.r, 3)
        return sum(self.entries.values())

    def is_zero(self) -> bool:
        if self.constant is not None:
            return self.constant == 0 or self.r < 3
        return all(v == 0 for v in self.entries.values())


@dataclass(frozen=True)
class BasePair:
    """All intersection-theoretic data of (Z, D) the invariants consume.

    Tables are indexed from 0.  ``c1_dd[j][k]`` is c1.D_j D_k (the diagonal is
    c1.D_j^2); ``dd2[j][k]`` is D_j.D_k^2, ordered; both are r x r.
    ``pair_curves[(j,k)]`` lists (genus, component count) for the components
    of the curve D_j.D_k.  ``h_section`` marks pairs whose divisors are all
    linearly equivalent to a single class H, so multiplicities must satisfy
    sum(nu) ~ 0 mod n.

    Everything the invariants derive from these tables alone is computed once
    per pair, on first use, and kept with it (also through pickling): the
    divisor aggregates (:meth:`sum_d3` ... :meth:`c2_dred`), the nonzero
    triples, ``meeting_pairs``, the weights of chi and e per pair
    (``pair_weights``, ``euler_weights``), ``chi_bound_weight``,
    ``log_chern`` and ``log_slopes``.  A report then does only the work that
    depends on n and the partition.
    """

    r: int
    c1_cubed: int
    c1c2: int
    c3: int
    d3: tuple[int, ...]
    c1sq_d: tuple[int, ...]
    c2_d: tuple[int, ...]
    c1_dd: tuple[tuple[int, ...], ...]
    dd2: tuple[tuple[int, ...], ...]
    triple: TripleTable
    pair_curves: dict  # {(j,k): ((genus, count), ...)}, j < k
    e_d: int
    e_sing_d: int
    label: str = "custom"
    h_section: bool = False

    def __post_init__(self):
        r = self.r
        for name in ("d3", "c1sq_d", "c2_d"):
            if len(getattr(self, name)) != r:
                raise BadParams(f"table {name} must have length {r}")
        for name in ("c1_dd", "dd2"):
            rows = getattr(self, name)
            if len(rows) != r or any(len(row) != r for row in rows):
                raise BadParams(f"table {name} must be {r} x {r}")
        if self.triple.r != r:
            raise BadParams(f"triple table has r = {self.triple.r}, pair has r = {r}")
        for key in self.pair_curves:
            if not (len(key) == 2 and 0 <= key[0] < key[1] < r):
                raise BadParams(
                    f"pair_curves key {key} must be (j, k) with 0 <= j < k < {r}"
                )
        for j in range(r):
            for k in range(r):
                if self.c1_dd[j][k] != self.c1_dd[k][j]:
                    raise BadParams("c1_dd must be symmetric")
        for j in range(r):
            for k in range(j + 1, r):
                crossing = self.dd2[j][k] or self.dd2[k][j] or any(
                    self.triple.get(j, k, l) for l in range(r) if l not in (j, k)
                )
                if crossing and not self.pair_curves.get((j, k)):
                    raise BadParams(
                        f"divisors {j}, {k} cross but pair_curves[({j},{k})] is empty"
                    )

    @property
    def chi(self) -> Fraction:
        """Analytic Euler characteristic of Z: c1c2/24."""
        return Fraction(self.c1c2, 24)

    def kz_dd(self, j: int, k: int) -> int:
        """K_Z . D_j D_k = -c1 . D_j D_k."""
        return -self.c1_dd[j][k]

    @cached_property
    def _aggregates(self) -> tuple[int, ...]:
        """(sum_d3, sum_12, sum_21, c1_d2, c1_d11, c1sq_dred, c2_dred)."""
        r, dd2, c1_dd = self.r, self.dd2, self.c1_dd
        pairs = list(itertools.combinations(range(r), 2))
        return (
            sum(self.d3),
            sum(dd2[j][k] for j, k in pairs),
            sum(dd2[k][j] for j, k in pairs),
            sum(c1_dd[j][j] for j in range(r)),
            sum(c1_dd[j][k] for j, k in pairs),
            sum(self.c1sq_d),
            sum(self.c2_d),
        )

    # aggregate divisor sums used by the closed forms
    def sum_d3(self) -> int:
        return self._aggregates[0]

    def sum_12(self) -> int:
        """D^[1,2] = sum_{j<k} D_j D_k^2."""
        return self._aggregates[1]

    def sum_21(self) -> int:
        """D^[2,1] = sum_{j<k} D_j^2 D_k."""
        return self._aggregates[2]

    def c1_d2(self) -> int:
        """c1 . D^[2]."""
        return self._aggregates[3]

    def c1_d11(self) -> int:
        """c1 . D^[1,1]."""
        return self._aggregates[4]

    def c1sq_dred(self) -> int:
        return self._aggregates[5]

    def c2_dred(self) -> int:
        return self._aggregates[6]

    def pair_meets(self, j: int, k: int) -> bool:
        """Whether the divisors D_j, D_k have any nonzero product."""
        if self.c1_dd[j][k] or self.dd2[j][k] or self.dd2[k][j]:
            return True
        return any(
            self.triple.get(j, k, l) for l in range(self.r) if l not in (j, k)
        )

    @cached_property
    def meeting_pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs j < k for which :meth:`pair_meets` holds, in order."""
        return tuple(
            (j, k)
            for j, k in itertools.combinations(range(self.r), 2)
            if self.pair_meets(j, k)
        )

    @cached_property
    def _triple_sums(self) -> dict[tuple[int, int], int]:
        """{(j, k): sum_l D_jkl} over the triples through each pair j < k."""
        sums = dict.fromkeys(itertools.combinations(range(self.r), 2), 0)
        for (j, k, l), t in self.triple.items_nonzero():
            sums[j, k] += t
            sums[j, l] += t
            sums[k, l] += t
        return sums

    @cached_property
    def pair_weights(self) -> tuple[tuple[int, int, int], ...]:
        """(j, k, w_jk) for the pairs j < k with w_jk != 0, the weight of the
        Dedekind sum d(nu_j, nu_k, n) in chi: w_jk = D_j D_k (D_j + D_k + K_Z)
        + sum_l D_jkl, so each triple product weights its three pairs."""
        weights = (
            (j, k, self.dd2[k][j] + self.dd2[j][k] + self.kz_dd(j, k) + t)
            for (j, k), t in self._triple_sums.items()
        )
        return tuple(entry for entry in weights if entry[2])

    @cached_property
    def euler_weights(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(e_0, ((j, k, c_jk), ...)) with e(X_n) = n (e(Z) - e(D)) + e_0
        + sum_{j<k} c_jk s_jk for the chain lengths s_jk of a cell.

        c_jk = sum_C (3 - 4 g(C)) - sum_l D_jkl over the components C of
        D_j D_k (pairs with c_jk = 0 are left out), and e_0 = e(D) - e(Sing D)
        - #{components C} + 3 D^[1,1,1].
        """
        e_0 = self.e_d - self.e_sing_d + 3 * self.triple.total()
        weights = []
        for (j, k), t in self._triple_sums.items():
            c = -t
            for genus, count in self.pair_curves.get((j, k), ()):
                c += count * (3 - 4 * genus)
                e_0 -= count
            if c:
                weights.append((j, k, c))
        return e_0, tuple(weights)

    @cached_property
    def chi_bound_weight(self) -> int:
        """sum_{j<k} |D_j D_k (D_j + D_k + K_Z)| + 3 sum_{j<k<l} |D_jkl|, the
        weight of the a-priori chi bound."""
        return sum(
            abs(self.dd2[k][j] + self.dd2[j][k] + self.kz_dd(j, k))
            for j, k in itertools.combinations(range(self.r), 2)
        ) + 3 * sum(abs(t) for _key, t in self.triple.items_nonzero())

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


@dataclass(frozen=True)
class LogChernNumbers:
    c1_cubed_bar: Fraction
    c1c2_bar: Fraction
    c3_bar: Fraction


def log_chern_numbers(pair: BasePair) -> LogChernNumbers:
    """The three log Chern numbers of the pair."""
    s3, s12, s21 = pair.sum_d3(), pair.sum_12(), pair.sum_21()
    s111 = pair.triple.total()
    c1_d2, c1_d11 = pair.c1_d2(), pair.c1_d11()
    c1sq_d, c2_d = pair.c1sq_dred(), pair.c2_dred()

    dred_cubed = s3 + 3 * (s12 + s21) + 6 * s111
    dred_d2 = s3 + s12 + s21          # D_red . D^[2]
    dred_d11 = s12 + s21 + 3 * s111   # D_red . D^[1,1]

    c1_cubed_bar = (
        pair.c1_cubed - 3 * c1sq_d + 3 * (c1_d2 + 2 * c1_d11) - dred_cubed
    )
    c1c2_bar = (
        pair.c1c2 - (c1sq_d + c2_d) + (2 * c1_d2 + 3 * c1_d11) - (dred_d2 + dred_d11)
    )
    c3_bar = pair.c3 - c2_d + (c1_d2 + c1_d11) - (s3 + s12 + s21 + s111)
    return LogChernNumbers(Fraction(c1_cubed_bar), Fraction(c1c2_bar), Fraction(c3_bar))


def nonsingular_cover_chern(pair: BasePair, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Chern numbers (c1^3, c1c2, c3) of the smooth degree-n cover of (Z, D).

    Requires pairwise-disjoint non-singular branch divisors (all cross
    products zero).  Each Chern class of the cover pulls back as
    c_e = c_e_bar + D^[1] c_{e-1}_bar / n, so the degree-3 numbers are exact
    polynomials in 1/n times the covering degree.
    """
    for j in range(pair.r):
        for k in range(pair.r):
            if j != k and (pair.c1_dd[j][k] or pair.dd2[j][k]):
                raise NotDisjoint(f"divisors {j}, {k} have nonzero products")
    if not pair.triple.is_zero():
        raise NotDisjoint("triple products present")

    d3 = Fraction(pair.sum_d3())
    c1_d2 = Fraction(pair.c1_d2())
    c1sq_d = Fraction(pair.c1sq_dred())
    c2_d = Fraction(pair.c2_dred())

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


def _hypersurface_tables(d: int, r: int) -> BasePair:
    genus = (d - 1) * (d - 2) // 2
    e_surface = d**3 - 4 * d * d + 6 * d
    e_curve = 3 * d - d * d  # 2 - 2*genus
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
        e_d=r * e_surface - math.comb(r, 2) * e_curve + math.comb(r, 3) * d,
        e_sing_d=math.comb(r, 2) * e_curve - 2 * d * math.comb(r, 3),
        label=f"hypersurface_p4(d={d}, r={r})" if d > 1 else f"planes_p3(r={r})",
        h_section=True,
    )


def make_preset(kind: str, params) -> BasePair:
    """Preset base pairs.

    ``planes_p3`` with params r: r planes in general position in P^3.
    ``hypersurface_p4`` with params (d, r): a smooth degree-d 3-fold in P^4
    with r general hyperplane sections (d = 1 recovers the planes preset).
    """
    if kind == "planes_p3":
        r = params if isinstance(params, int) else params[0]
        if r < 1:
            raise BadParams(f"need r >= 1, got {r}")
        return _hypersurface_tables(1, r)
    if kind == "hypersurface_p4":
        try:
            d, r = params
        except (TypeError, ValueError):
            raise BadParams("hypersurface_p4 takes params (d, r)") from None
        if d < 1 or r < 1:
            raise BadParams(f"need d >= 1 and r >= 1, got ({d}, {r})")
        return _hypersurface_tables(d, r)
    raise BadParams(f"unknown preset kind {kind!r}")


def base_pair_to_json(pair: BasePair) -> str:
    """Versioned JSON of the full intersection data."""
    triple: dict
    if pair.triple.constant is not None:
        triple = {"constant": pair.triple.constant}
    else:
        triple = {
            "entries": [[j, k, l, v] for (j, k, l), v in sorted(pair.triple.entries.items())]
        }
    doc = {
        "schema": "rootcover-basepair/1",
        "label": pair.label,
        "h_section": pair.h_section,
        "r": pair.r,
        "c1_cubed": pair.c1_cubed,
        "c1c2": pair.c1c2,
        "c3": pair.c3,
        "d3": list(pair.d3),
        "c1sq_d": list(pair.c1sq_d),
        "c2_d": list(pair.c2_d),
        "c1_dd": [list(row) for row in pair.c1_dd],
        "dd2": [list(row) for row in pair.dd2],
        "triple": triple,
        "pair_curves": [
            [j, k, [[g, c] for g, c in curves]]
            for (j, k), curves in sorted(pair.pair_curves.items())
        ],
        "e_d": pair.e_d,
        "e_sing_d": pair.e_sing_d,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def base_pair_from_json(text: str) -> BasePair:
    """Inverse of base_pair_to_json; BadParams for text that is not a valid document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParams(f"base pair is not JSON: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "rootcover-basepair/1":
        raise BadParams(f"unsupported schema {schema!r}")
    try:
        r = doc["r"]
        tdoc = doc["triple"]
        if "constant" in tdoc:
            triple = TripleTable(r=r, constant=tdoc["constant"])
        else:
            entries = {tuple(e[:3]): e[3] for e in tdoc["entries"]}
            triple = TripleTable(r=r, entries=entries)
        return BasePair(
            r=r,
            c1_cubed=doc["c1_cubed"],
            c1c2=doc["c1c2"],
            c3=doc["c3"],
            d3=tuple(doc["d3"]),
            c1sq_d=tuple(doc["c1sq_d"]),
            c2_d=tuple(doc["c2_d"]),
            c1_dd=tuple(tuple(row) for row in doc["c1_dd"]),
            dd2=tuple(tuple(row) for row in doc["dd2"]),
            triple=triple,
            pair_curves={
                (j, k): tuple((g, c) for g, c in curves)
                for j, k, curves in doc["pair_curves"]
            },
            e_d=doc["e_d"],
            e_sing_d=doc["e_sing_d"],
            label=doc.get("label", "custom"),
            h_section=doc.get("h_section", False),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise BadParams(f"malformed base pair: {type(exc).__name__}: {exc}") from None
