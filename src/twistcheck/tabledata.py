"""Golden rows for the two published twist tables.

Each row carries its Cremona label; the conductor and L/Omega entries can be
cross-checked offline against the standard curve tables under that label.
The d = 41 row of the level-21 table is a documented erratum in the source:
the printed conductor does not match either the label or the twist, so the
expected value stored here is the label-consistent one and the row carries
an annotation instead of a silent fix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class TableRow(NamedTuple):
    d: int
    conductor_factors: tuple[tuple[int, int], ...]
    lratio: Fraction
    excluded: tuple[int, ...] | None  # None encodes "none" (vanishing L-value)
    label: str
    erratum: str | None = None


def _row(d, factors, ratio, excluded, label, erratum=None):
    return TableRow(d, tuple(factors), Fraction(ratio), excluded, label, erratum)


TABLE1: tuple[TableRow, ...] = (
    _row(2, [(2, 6), (3, 1), (5, 1)], 2, (2, 3, 5), "960g3"),
    _row(3, [(2, 4), (3, 2), (5, 1)], 0, None, "720h3"),
    _row(6, [(2, 6), (3, 2), (5, 1)], 4, (2, 3, 5), "2880bd3"),
    _row(7, [(2, 4), (3, 1), (5, 1), (7, 2)], 0, None, "11760bq3"),
    _row(10, [(2, 6), (3, 1), (5, 2)], 0, None, "4800b3"),
    _row(11, [(2, 4), (3, 1), (5, 1), (11, 2)], 0, None, "29040dg3"),
    _row(13, [(3, 1), (5, 1), (13, 2)], 0, None, "2535a3"),
    _row(14, [(2, 6), (3, 1), (5, 1), (7, 2)], 0, None, "47040hg3"),
    _row(17, [(3, 1), (5, 1), (17, 2)], 2, (2, 3, 5, 17), "4335d3"),
    _row(19, [(2, 4), (3, 1), (5, 1), (19, 2)], 8, (2, 3, 5, 19), "86640cm3"),
    _row(21, [(3, 2), (5, 1), (7, 2)], 4, (2, 3, 5, 7), "2205j3"),
    _row(22, [(2, 6), (3, 1), (5, 1), (11, 2)], 0, None, "116160ez3"),
    _row(23, [(2, 4), (3, 1), (5, 1), (23, 2)], 8, (2, 3, 5, 23), "126960cj3"),
    _row(26, [(2, 6), (3, 1), (5, 1), (13, 2)], 0, None, "162240ez4"),
    _row(29, [(3, 1), (5, 1), (29, 2)], 0, None, "12615f3"),
    _row(31, [(2, 4), (3, 1), (5, 1), (31, 2)], 8, (2, 3, 5, 31), "230640bg4"),
    _row(33, [(3, 2), (5, 1), (11, 2)], 0, None, "5445g3"),
    _row(34, [(2, 6), (3, 1), (5, 1), (17, 2)], 0, None, "277440do4"),
    _row(35, [(2, 4), (3, 1), (5, 2), (7, 2)], 16, (2, 3, 5, 7), "58800it3"),
    _row(37, [(3, 1), (5, 1), (37, 2)], 0, None, "20535a3"),
    _row(38, [(2, 6), (3, 1), (5, 1), (19, 2)], 0, None, "346560gv4"),
    _row(39, [(2, 4), (3, 2), (5, 1), (13, 2)], 16, (2, 3, 5, 13), "121680en3"),
    _row(41, [(3, 1), (5, 1), (41, 2)], 0, None, "25215h3"),
)

TABLE2: tuple[TableRow, ...] = (
    _row(2, [(2, 6), (3, 1), (7, 1)], 0, None, "1344a2"),
    _row(3, [(2, 4), (3, 2), (7, 1)], 2, (2, 3, 7), "1008k2"),
    _row(5, [(3, 1), (5, 2), (7, 1)], 1, (2, 3, 5, 7), "525b2"),
    _row(6, [(2, 6), (3, 2), (7, 1)], 2, (2, 3, 7), "4032bm2"),
    _row(10, [(2, 6), (3, 1), (5, 2), (7, 1)], 0, None, "33600dd2"),
    _row(11, [(2, 4), (3, 1), (7, 1), (11, 2)], 0, None, "40656bk2"),
    _row(13, [(3, 1), (7, 1), (13, 2)], 0, None, "3549c2"),
    _row(15, [(2, 4), (3, 2), (5, 2), (7, 1)], 0, None, "25200dx2"),
    _row(17, [(3, 1), (7, 1), (17, 2)], 1, (2, 3, 7, 17), "6069b2"),
    _row(19, [(2, 4), (3, 1), (7, 1), (19, 2)], 0, None, "121296dk2"),
    _row(22, [(2, 6), (3, 1), (7, 1), (11, 2)], 8, (2, 3, 7, 11), "162624bj2"),
    _row(23, [(2, 4), (3, 1), (7, 1), (23, 2)], 0, None, "177744ca2"),
    _row(26, [(2, 6), (3, 1), (7, 1), (13, 2)], 4, (2, 3, 7, 13), "227136ho2"),
    _row(29, [(3, 1), (7, 1), (29, 2)], 0, None, "17661a2"),
    _row(30, [(2, 6), (3, 2), (5, 2), (7, 1)], 0, None, "100800me2"),
    _row(31, [(2, 4), (3, 1), (7, 1), (31, 2)], 0, None, "322896cn2"),
    _row(33, [(3, 2), (7, 1), (11, 2)], 2, (2, 3, 7, 11), "7623p2"),
    _row(34, [(2, 6), (3, 1), (7, 1), (17, 2)], 0, None, "388416fo2"),
    _row(37, [(3, 1), (7, 1), (37, 2)], 8, (2, 3, 7, 37), "28749e2"),
    _row(38, [(2, 6), (3, 1), (7, 1), (19, 2)], 4, (2, 3, 7, 19), "485184dx2"),
    _row(39, [(2, 4), (3, 2), (7, 1), (13, 2)], 0, None, "170352t2"),
    _row(
        41,
        [(3, 1), (7, 1), (41, 2)],
        1,
        (2, 3, 7, 41),
        "35301e2",
        erratum=(
            "source prints the conductor as 2^4*3*7*43^2, which matches neither "
            "d = 41 nor the label 35301e2; the expected value is the "
            "label-consistent 3*7*41^2"
        ),
    ),
)


def factors_to_str(factors: tuple[tuple[int, int], ...]) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)
