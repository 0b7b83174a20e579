"""Aggregate partition-function and SNF statistics over all hyperbolic
classes with |Tr| < T, with density comparisons against the conjugacy-class
sizes of SL(2,F_p) and logarithmic-integral normalizations.

Two normalizations are tracked throughout: tallies over ALL classes (both
trace signs) and over positive-trace classes only (one per +-pair of
classes, i.e. one per closed geodesic).  The class count at trace bound T
is ~ li(T^2) per sign, so constants quoted against li(T^2) differ by a
factor 2 between the normalizations; reports show both.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._quadpack import qags_inv_log
from .bqf import _class_rows
from .intmat import _checked_integer, is_prime
from .sl2 import KINDS_ODD, KINDS_P2, class_table, dw_exponent_of_kind, jacobi

CSV_HEADER = "T,total,c1,c2,unipotent,rest,dw_sum,snf_id,snf_unip,snf_rest,li_T2"


@cache
def log_integral(x: float) -> float:
    """li(x) = integral of dt/log(t) from 2 to x, once per x, by QUADPACK's
    QAGS (`mti._quadpack.qags_inv_log`): the bits of scipy's `quad` with
    limit=200.  The port follows the one path QAGS takes for 1/log u and
    raises AssertionError off it, which happens only for x - 2 below about
    3.4e-13.  So x = 2 (li = 0) and every x from 3 to the largest float are
    taken, and the rest, the band 2 < x < 3 included, refused (ValueError);
    the census asks only x = T^2 >= 16."""
    if x == 2:
        return 0.0
    if not 3 <= x <= sys.float_info.max:
        raise ValueError("x must be 2 or a finite float of at least 3")
    return qags_inv_log(float(x))[0]


@dataclass
class Checkpoint:
    """Cumulative tallies over |Tr| < T (both signs unless suffixed _pos)."""

    T: int
    p: int
    total: int
    per_label: dict[str, int]
    dw_sum: int
    snf_triple: tuple[int, int, int]
    li_T2: float
    total_pos: int
    dw_sum_pos: int
    snf_triple_pos: tuple[int, int, int]

    def csv_row(self) -> str:
        c1, unip, rest = self.snf_triple
        c2 = self.per_label.get("C2", 0) if self.p != 2 else 0
        values = (self.T, self.total, c1, c2, unip, rest - c2, self.dw_sum, *self.snf_triple)
        return ",".join(str(v) for v in values) + f",{self.li_T2!r}"


@dataclass
class CensusReport(Checkpoint):
    """The tallies over |Tr| < T, which are its last checkpoint's, and every
    checkpoint T/2^k below T."""

    checkpoints: list[Checkpoint]

    @property
    def total_classes(self) -> int:
        return self.total

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(cp.csv_row() for cp in self.checkpoints)
        return "\n".join(lines) + "\n"


def census(p: int, T: int) -> CensusReport:
    """Classify every hyperbolic class with |Tr| < T modulo p.

    The classes come from `bqf`, which keeps the rows of the last bound
    asked for as the walk's chunks, each columns (|t|, m, k) of one reduced
    m < 0 form (m, l, k) per class, in no particular order, one row per |t|
    and class for both trace signs.  A trace s != +-2 mod p fixes the label
    of all its classes; on s = +-2 mod p the residues b = k and c = -m fix
    it: the class is central exactly when b = c = 0, and the Legendre symbol
    of -c (or of b) splits the rest (see `_bin_tables`).  The rows are
    counted by checkpoint segment, trace slot and symbol chunk by chunk:
    each chunk's bins are gathered from three tables and added into the
    count table by one bincount; each checkpoint T/2^k sums the segments
    below it, one product with a one-hot matrix built at import
    (`_tally_matrix`) takes its bins to labels on s = t and on both signs,
    and `_snapshots` reads every checkpoint off the product at once.
    """
    p, T = _checked_integer(p, "p must be an integer"), _checked_integer(T, "T must be an integer")
    if p >= 2**63:
        raise ValueError("p must be below 2^63")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chunks = _class_rows(T)
    # checkpoint bounds T/2^k below T, all >= 4, then T itself
    bounds = sorted({T >> j for j in range(1, T.bit_length()) if T >> j >= 4}) + [T]
    base, of_m, of_k = _bin_tables(p, bounds)
    # counts by bin below each bound, then by label on s = t and on both
    # signs; mode="wrap" does not clip the negative m, which index of_m from
    # the end as in Python
    counts = np.zeros(len(bounds) * _BINS, np.int64)
    for t, m, k in chunks:
        bins = np.take(base, t, mode="wrap")
        bins += np.take(of_m, m, mode="wrap")
        bins += np.take(of_k, k, mode="wrap")
        counts += np.bincount(bins, minlength=counts.size)
    counts = counts.reshape(len(bounds), _BINS).cumsum(0) @ (_TALLY_P2 if p == 2 else _TALLY_ODD)
    checkpoints = _snapshots(p, bounds, counts)
    return CensusReport(**vars(checkpoints[-1]), checkpoints=checkpoints)


# the bins of one checkpoint segment: four trace slots (the two fixed labels,
# then s = 2 and s = -2 mod p) of five symbol sums -2 .. 2 each
_BINS = 4 * 5
# 5 times the trace slot of s, indexed by 3 (s-2 / p) + (s+2 / p) in -4 .. 4
# (from the end below 0): the symbol of s^2 - 4 picks slot 0 (1) or 1 (-1);
# s = 2 mod p, where (s-2 / p) = 0, is slot 2, and s = -2 mod p slot 3
_SLOT_BINS = 5 * np.array([2, 2, 1, 3, 0, 0, 3, 1, 2], np.intp)


def _tally_matrix(nl: int, fixed: tuple[int, int], table: list[list[int]]) -> np.ndarray:
    """The one-hot int64 (_BINS, 2 * nl) matrix that takes a segment's
    counts by bin to its counts by label index on s = t, then on both
    signs: the fixed labels of the first two slots, and on s = 2 (first row
    of table) and s = -2 the labels by the symbol 0 (central), 1 or -1 of
    w, spread over the sums -2 .. 2.  The class of trace -s swaps s = 2 and
    s = -2, so its labels read the rows of table in reverse."""
    table = np.array(table)[:, [2, 2, 0, 1, 1]]
    fixed = np.repeat([fixed], 5, axis=0).T
    on_pos = np.concatenate([fixed, table]).ravel()
    on_neg = np.concatenate([fixed, table[::-1]]).ravel()
    labels = np.eye(nl, dtype=np.int64)
    return np.hstack([labels[on_pos], labels[on_pos] + labels[on_neg]])


# p = 2 has s = 2 = -2, and no negative symbol sum
_TALLY_P2 = _tally_matrix(len(KINDS_P2), (2, 2), [[0, 1, 1]] * 2)
_TALLY_ODD = _tally_matrix(len(KINDS_ODD), (6, 7), [[0, 2, 3], [1, 4, 5]])


def _bin_tables(p: int, bounds: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The intp tables base, of_m and of_k whose sum base[|t|] + of_m[m] +
    of_k[k] is a row's bin: its checkpoint segment, its trace's slot and
    the sum of the symbols of its m and k, which `_tally_matrix` takes to
    the row's label on s = t and on s = -t.

    The form (m, l, k) stands for the class A = [[(s-l)/2, b], [c, (s+l)/2]]
    with b = k and c = -m.  A trace s other than +-2 mod p fixes the kind of
    all its classes (C7/C8 by the symbol of s^2 - 4, C3 for p = 2).  On
    s = +-2 mod p the residues b and c decide the rest: A = +-Id mod p
    exactly when b = c = 0 mod p, and a class that is not central is C3/C4
    (s = 2) or C5/C6 (s = -2) as the Legendre symbol of w = -c (or b where
    c = 0) is 1 or -1, and C2 for p = 2.  p divides l^2 - 4mk = s^2 - 4
    there, so where neither b nor c is 0 mod p they have the same symbol:
    the sign of (m/p) + (k/p) is the symbol of w, and the sum is 0 just
    when the class is central (mod 2, take the residues for symbols).  The
    tables are indexed by the coefficients themselves: every stored |m| and
    k is below |t| < T.  The form's class of trace -s has the same b and c,
    so the bin serves both signs.
    """
    T = bounds[-1]
    symbol = _legendre_table(p, T + 2).astype(np.intp)
    # segment j covers bounds[j - 1] <= s < bounds[j]; no row has |t| < 3
    base = np.repeat(np.arange(2, 20 * len(bounds), 20), np.diff([0, *bounds]))
    # the slots of s = 3 .. T - 1, by the symbols of s - 2 and s + 2
    base[3:] += _SLOT_BINS[3 * symbol[1 : T - 2] + symbol[5 : T + 2]]
    # the symbols of k in [1, T), and of m in (-T, 0) indexed from the end
    return base, (-1 if p % 4 == 3 else 1) * symbol[T:0:-1], symbol[:T]


def _legendre_table(p: int, n: int) -> np.ndarray:
    """Legendre symbols mod p of 0 .. n - 1 as int8, mod 2 the residues:
    `jacobi` of each residue below min(p, n), repeated mod p."""
    return np.array([jacobi(v, p) for v in range(min(p, n))], np.int8)[np.arange(n) % p]


@cache
def _label_categories(p: int) -> tuple[int, ...]:
    """The SNF category 2 - e of each label of KINDS_ODD (KINDS_P2 for p = 2),
    once per p: Z = p^e counts the entries of SNF(A - Id) = diag(A1, A2),
    A1 | A2, that p divides, so category 0, 1 or 2 is p | A1, p | A2 only
    or neither."""
    return tuple(2 - dw_exponent_of_kind(kind, p) for kind in (KINDS_P2 if p == 2 else KINDS_ODD))


def _snapshots(p: int, bounds: list[int], counts: np.ndarray) -> list[Checkpoint]:
    """The checkpoint at each bound, from its row of counts by label on the
    positive traces, then on both signs, below it.

    The SNF triple sums the label counts by SNF category
    (`_label_categories`), and the Z sum is (p^2, p, 1) times the triple, in
    Python ints, since p^2 overflows int64 for p near 2^63.
    """
    labels = KINDS_P2 if p == 2 else KINDS_ODD
    group = np.zeros((len(labels), 3), np.int64)
    group[range(len(labels)), _label_categories(p)] = 1
    counts = counts.reshape(len(bounds), 2, len(labels))
    z = (p * p, p, 1)
    return [
        Checkpoint(
            T=T,
            p=p,
            total=sum(label),
            per_label=dict(zip(labels, label)),
            dw_sum=sum(map(operator.mul, z, snf)),
            snf_triple=tuple(snf),
            li_T2=log_integral(float(T) * T),
            total_pos=sum(pos_label),
            dw_sum_pos=sum(map(operator.mul, z, pos_snf)),
            snf_triple_pos=tuple(pos_snf),
        )
        for T, (pos_label, label), (pos_snf, snf) in zip(bounds, counts.tolist(), (counts @ group).tolist())
    ]


@dataclass
class DensityRow:
    kind: str
    count: int
    empirical: float
    predicted: float
    deviation: float


@dataclass
class DensityReport:
    rows: list[DensityRow]
    # per checkpoint: (T', relative deviations of the identity / unipotent /
    # rest group frequencies from the predicted densities)
    checkpoint_deviations: list[tuple[int, float, float, float]]


def predicted_class_fractions(p: int) -> dict[str, float]:
    """|C|/|G| summed over the classes of each kind (`sl2.class_table`)."""
    return {kind: count * size / (p**3 - p) for kind, (count, size) in class_table(p).items()}


@cache
def _category_sizes(p: int) -> tuple[int, int, int]:
    """The class sizes of SL(2, F_p) summed by SNF category
    (`_label_categories`), once per p, in Python ints."""
    sizes = [0, 0, 0]
    for category, (count, size) in zip(_label_categories(p), class_table(p).values()):
        sizes[category] += count * size
    return tuple(sizes)


def group_fractions(p: int) -> tuple[float, float, float]:
    """Predicted (identity, Z=p group, rest) frequencies: the class sizes
    by SNF category over |G|."""
    return tuple(n / (p**3 - p) for n in _category_sizes(p))


def density_report(report: CensusReport) -> DensityReport:
    """Empirical class-kind frequencies vs predicted |C|/|G| densities."""
    if report.total_classes <= 0:
        raise ValueError("census is empty")
    pred = predicted_class_fractions(report.p)
    rows = []
    for kind, frac in pred.items():
        count = report.per_label.get(kind, 0)
        emp = count / report.total_classes
        dev = abs(emp - frac) / frac if frac > 0 else float(count)
        rows.append(DensityRow(kind, count, emp, frac, dev))
    g1, g2, g3 = group_fractions(report.p)
    cps = []
    for cp in report.checkpoints:
        c1, unip, rest = cp.snf_triple
        cps.append(
            (
                cp.T,
                abs(c1 / cp.total - g1) / g1,
                abs(unip / cp.total - g2) / g2,
                abs(rest / cp.total - g3) / g3,
            )
        )
    return DensityReport(rows, cps)


@dataclass
class ConstantsReport:
    """Sum-normalized constants against li(T^2), in both normalizations,
    next to the printed and the class-size-derived predictions."""

    dw_all: float
    dw_pos: float
    snf_all: tuple[float, float, float]
    snf_pos: tuple[float, float, float]
    dw_printed: float
    dw_derived: float
    snf_printed: tuple[float, float, float]
    snf_derived: tuple[float, float, float]


def theorem_constants(report: CensusReport) -> ConstantsReport:
    """The census sums over li(T^2), and the paper's printed constants next
    to the ones derived from `sl2.class_table`: the mean of Z = p^e over
    SL(2, F_p), sum Z |C| / |G| = (p^2, p, 1) times the class sizes by SNF
    category over |G|, which is 2 for every p, and the SNF category
    fractions."""
    p = report.p
    li = report.li_T2
    order = p**3 - p
    z_sum = sum(map(operator.mul, (p * p, p, 1), _category_sizes(p)))
    return ConstantsReport(
        dw_all=report.dw_sum / li,
        dw_pos=report.dw_sum_pos / li,
        snf_all=tuple(v / li for v in report.snf_triple),
        snf_pos=tuple(v / li for v in report.snf_triple_pos),
        dw_printed=(2 * p**3 - 2 * p + 1) / order,
        dw_derived=z_sum / order,
        snf_printed=(1 / order, (p * p - 1) / order, (p**3 - p**2 - p - 1) / order),
        snf_derived=group_fractions(p),
    )


def census_text(report: CensusReport) -> str:
    """The census text report: totals, the density table, the deviation
    trend over checkpoints, and the sum constants in both normalizations."""
    dens = density_report(report)
    c = theorem_constants(report)

    def triple(values) -> str:
        return ", ".join(f"{v:.5f}" for v in values)

    lines = [
        f"census p={report.p} T={report.T}: {report.total_classes} classes "
        f"({report.total_pos} with positive trace), li(T^2)={report.li_T2:.3f}",
        f"  dw_sum={report.dw_sum} snf_triple={report.snf_triple}",
        "  kind | count | empirical | predicted | rel.dev",
    ]
    lines += [
        f"  {r.kind:>4} | {r.count:>8} | {r.empirical:.6f} | {r.predicted:.6f} | {r.deviation:.4f}"
        for r in dens.rows
    ]
    lines.append("  deviation trend (T', identity / trace-2 / rest groups):")
    lines += [f"    {t:>6}: {d1:.5f}  {d2:.5f}  {d3:.5f}" for t, d1, d2, d3 in dens.checkpoint_deviations]
    lines += [
        f"  sum constants vs li(T^2) at T={report.T}:",
        f"    partition-function sum: positive-trace {c.dw_pos:.4f}, all-classes {c.dw_all:.4f}; "
        f"printed {c.dw_printed:.4f}, class-size-derived {c.dw_derived:.4f}",
        f"    divisibility triple:    positive-trace ({triple(c.snf_pos)})",
        f"                            all-classes    ({triple(c.snf_all)})",
        f"                            printed        ({triple(c.snf_printed)})",
        f"                            derived        ({triple(c.snf_derived)})",
        "    note: the all-classes normalization counts each +-trace pair twice,"
        " so it runs at twice the derived constants; the positive-trace"
        " normalization (one class per closed geodesic) matches them.",
    ]
    return "\n".join(lines)
