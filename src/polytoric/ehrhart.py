"""Lattice-point counting, Ehrhart polynomials, reciprocity, splitting index.

Every lattice-point question goes through one line kernel, ``line_spans``:
the first n-1 coordinates run over a box, and each inequality holds on one
exact interval of the last. Counts add up the lengths of those intervals
and never enumerate. The counting function accepts any integer
dilation factor, including negative ones, which is what reciprocity is
about: (-1)^n E(-k) equals the number of interior lattice points of -kP,
with the dilate taken literally.

Each polytope's ``_cache`` is its one Ehrhart table: every dilate count under
(|k|, strict), as x -> -x maps the interior of kP onto that of -kP, and the
polynomial. Reciprocity and the splitting index read one interior column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul

from .polytope import LatticePolytope

# most dilate box points reciprocity_table may face; a 3D box of edge 460
MAX_RECIPROCITY_POINTS = 10**8
# most lines one line_spans sweep may visit, the size of the scan budget
MAX_SWEEP_LINES = 10**6


def line_spans(inequalities, box):
    """``(prefix, spans)`` per line of the box, prefixes of the first n-1
    coordinates in ``itertools.product`` order; ``box`` is one inclusive
    (lo, hi) per coordinate. Row (a, b) holds on the span ``(first, last)``
    of t in [lo, hi] with <prefix + (t,), a> + b >= 0, empty if first > last.
    A sweep of more than ``MAX_SWEEP_LINES`` lines is refused before any
    range is built.
    """
    *head, (lo, hi) = box
    lines = prod(max(0, h - l + 1) for l, h in head)
    if lines > MAX_SWEEP_LINES:
        raise ValueError(
            f"a sweep of {lines} lines is more than the {MAX_SWEEP_LINES} lines allowed"
        )
    rows = [(a[:-1], a[-1], b) for a, b in inequalities]
    for prefix in product(*(range(l, h + 1) for l, h in head)):
        spans = []
        for a, c, b in rows:
            # s + c*t >= 0 for the last coordinate t
            s = sum(map(mul, prefix, a)) + b
            if c > 0:
                spans.append((max(lo, -(s // c)), hi))
            elif c < 0:
                spans.append((lo, min(hi, s // -c)))
            else:
                spans.append((lo, hi if s >= 0 else lo - 1))
        yield prefix, spans


def lattice_points(inequalities, box):
    """Integer points x of the box with <x, a> + b >= 0 for every (a, b), in
    ``line_spans`` order: the spans of each line intersected. With no
    inequalities the whole box is enumerated."""
    for prefix, spans in line_spans(inequalities, box):
        firsts, lasts = zip(box[-1], *spans)
        for t in range(max(firsts), min(lasts) + 1):
            yield prefix + (t,)


def count_lattice_points(inequalities, box) -> int:
    """How many points ``lattice_points`` yields, from the length of each
    line's intersected span, without yielding them."""
    total = 0
    for _, spans in line_spans(inequalities, box):
        firsts, lasts = zip(box[-1], *spans)
        total += max(0, min(lasts) - max(firsts) + 1)
    return total


def _dilate_system(poly: LatticePolytope, k: int, strict: bool):
    """Inequalities and box of the literal dilate kP (strict: its interior).

    Scaling by a negative k reverses every facet inequality. On integer
    points a facet value v > 0 is v - 1 >= 0, so the interior is exact too.
    """
    sign = 1 if k >= 0 else -1
    rows = [
        (tuple(sign * c for c in f.normal), sign * k * f.offset - int(strict)) for f in poly.facets
    ]
    return rows, [sorted((k * lo, k * hi)) for lo, hi in poly.bounding_box()]


def dilate_points(poly: LatticePolytope, k: int, strict: bool = False):
    """Lattice points of the literal dilate kP (strict: its interior), any integer k."""
    return lattice_points(*_dilate_system(poly, k, strict))


def dilate_count(poly: LatticePolytope, k: int, strict: bool = False) -> int:
    """Lattice points of the literal dilate kP, boundary included or not;
    swept once per (|k|, strict) and then read from the polytope's table."""
    key = (abs(k), strict)
    if key not in poly._cache:
        poly._cache[key] = count_lattice_points(*_dilate_system(poly, abs(k), strict))
    return poly._cache[key]


def count_points(poly: LatticePolytope, k: int, interior: bool = False) -> int:
    """Number of lattice points of kP, or of its interior."""
    if k < 0:
        raise ValueError("dilation factor must be non-negative")
    if interior and k < 1:
        raise ValueError("interior counts need k >= 1")
    return dilate_count(poly, k, interior)


@dataclass(frozen=True)
class EhrhartPolynomial:
    """E(T) = sum(c_i T^i) with exact rational coefficients, degree = dim P."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        if self.coefficients[0] != 1:
            raise ValueError("constant term must be 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, k) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc

    def value_at_integer(self, k: int) -> int:
        v = self(k)
        if v.denominator != 1:
            raise ValueError(f"E({k}) = {v} is not an integer")
        return v.numerator

    def integral_roots(self) -> tuple[int, ...]:
        """Distinct integer roots; they can only lie in [-(degree+1), 0]."""
        return tuple(j for j in range(-(self.degree + 1), 1) if self(j) == 0)


def ehrhart_polynomial(poly: LatticePolytope) -> EhrhartPolynomial:
    """Exact Lagrange interpolation through the counts at k = 0 .. n, built
    once and then read from the polytope's table."""
    if "ehrhart_polynomial" in poly._cache:
        return poly._cache["ehrhart_polynomial"]
    n = poly.dim
    counts = [count_points(poly, k) for k in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for k, y in enumerate(counts):
        # numerator polynomial prod_{j != k} (T - j), then scale
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n + 1):
            if j == k:
                continue
            num = [Fraction(0)] + num
            for i in range(len(num) - 1):
                num[i] -= j * num[i + 1]
            denom *= k - j
        scale = Fraction(y) / denom
        for i, c in enumerate(num):
            coeffs[i] += scale * c
    ehr = EhrhartPolynomial(tuple(coeffs))
    for k in range(-(n + 2), n + 3):
        ehr.value_at_integer(k)
    poly._cache["ehrhart_polynomial"] = ehr
    return ehr


def check_reciprocity_budget(poly: LatticePolytope, kmax: int) -> None:
    """Refuse a reciprocity table up to kmax whose dilate boxes hold more than
    ``MAX_RECIPROCITY_POINTS`` points in total; counts nothing."""
    widths = [hi - lo for lo, hi in poly.bounding_box()]
    total = 0
    for j in range(1, kmax + 1):
        # each box holds at least j points, so this ends within 15000 steps
        total += prod(j * w + 1 for w in widths)
        if total > MAX_RECIPROCITY_POINTS:
            raise ValueError(
                f"reciprocity up to {kmax} scans more than the "
                f"{MAX_RECIPROCITY_POINTS} box points allowed"
            )


def reciprocity_table(poly: LatticePolytope, kmax: int) -> list[tuple[int, int, int]]:
    """Rows (k, (-1)^n E(k), interior lattice points of kP) for k = -1 .. -kmax,
    refused before any counting by ``check_reciprocity_budget``."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    check_reciprocity_budget(poly, kmax)
    ehr = ehrhart_polynomial(poly)
    sign = (-1) ** poly.dim
    return [
        (-j, sign * ehr.value_at_integer(-j), dilate_count(poly, -j, strict=True))
        for j in range(1, kmax + 1)
    ]


def reciprocity_check(poly: LatticePolytope, kmax: int) -> bool:
    """(-1)^n E(-j) equals the interior lattice-point count of -jP, j = 1..kmax,
    on every row of ``reciprocity_table``."""
    return all(signed == interior for _, signed, interior in reciprocity_table(poly, kmax))


def splitting_index(poly: LatticePolytope) -> int:
    """Number of distinct integral Ehrhart roots.

    Computed twice and asserted equal: as the count of integral roots (which
    must form the consecutive block -1 .. -k), and as the least j >= 0 such
    that (j+1)P has an interior lattice point.
    """
    n = poly.dim
    ehr = ehrhart_polynomial(poly)
    roots = ehr.integral_roots()
    if ehr(-(n + 2)) == 0:
        raise ArithmeticError("integral root outside the admissible window")
    if roots and set(roots) != {-j for j in range(1, len(roots) + 1)}:
        raise ArithmeticError(f"integral roots {roots} are not a consecutive block")
    by_roots = len(roots)
    by_interior = next(
        (j for j in range(n + 1) if dilate_count(poly, j + 1, strict=True) > 0), None
    )
    if by_interior is None:
        raise ArithmeticError("no dilate up to n+1 has an interior lattice point")
    if by_roots != by_interior:
        raise ArithmeticError(
            f"splitting index mismatch: {by_roots} roots vs first interior dilate {by_interior}"
        )
    return by_roots
