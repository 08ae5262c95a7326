"""Lattice-point counting, Ehrhart polynomials, reciprocity, splitting index.

Every lattice-point question goes through one line kernel, ``line_values``:
the first n-1 coordinates run over a box as an odometer that keeps each
inequality's value at the current prefix, adding one column when a
coordinate steps, and each inequality holds on one exact interval of the
last coordinate, read off its value by floor division. Counts add up the
lengths of those intervals and never enumerate. For a dilate kP, head
coordinate j also stays in k*Q_j, where Q_j is the projection of P onto
coordinates 0..j (its hull is built once per polytope), so the lines that
miss kP are never visited; inequalities whose last nonzero coefficient is
a head coordinate's bound that coordinate in the same way. The scan of
``sheaf`` and verify's irredundancy counts pass no projection.
The counting function accepts any integer dilation factor, including
negative ones, which is what reciprocity is about: (-1)^n E(-k) equals the
number of interior lattice points of -kP, with the dilate taken literally.

Each polytope's ``_cache`` is its one Ehrhart table: every dilate count under
(|k|, strict), as x -> -x maps the interior of kP onto that of -kP, the
polynomial and the projections. Reciprocity and the splitting index read
one interior column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import add

from .polytope import LatticePolytope, build_polytope

# most dilate box points a reciprocity table may face; a 3D box of edge 460
MAX_RECIPROCITY_POINTS = 10**8
# most lines one sweep may visit, the size of the scan budget
MAX_SWEEP_LINES = 10**6
# most points a listed box may hold; a 3D box of edge 100 fits
MAX_SCAN_POINTS = 10**6


def check_plan(sweep=None, listed=(), table=None) -> None:
    """Refuse a command's work plan before anything is counted, with a
    one-line ``ValueError``; the one reader of the budgets, and of box sizes
    only. Refused are a reciprocity ``table`` (P, kmax) whose dilate boxes of
    P .. kmax*P hold more than ``MAX_RECIPROCITY_POINTS`` points in all; a
    ``sweep`` box, of the largest dilate the command counts or of one
    ``line_values`` sweep, of more than ``MAX_SWEEP_LINES`` lines; and a box
    of the ``listed`` (name, box) pairs, whose points the command lists, of
    more than ``MAX_SCAN_POINTS`` points."""
    if table is not None:
        poly, kmax = table
        unit = poly.bounding_box()
        total = 0
        for j in range(1, kmax + 1):
            # the box of jP holds at least j points, so this ends within 15000 steps
            total += prod(j * (hi - lo) + 1 for lo, hi in unit)
            if total > MAX_RECIPROCITY_POINTS:
                raise ValueError(
                    f"reciprocity up to {kmax} scans more than the "
                    f"{MAX_RECIPROCITY_POINTS} box points allowed"
                )
    if sweep is not None:
        lines = prod(max(0, hi - lo + 1) for lo, hi in sweep[:-1])
        if lines > MAX_SWEEP_LINES:
            raise ValueError(
                f"a sweep of {lines} lines is more than the {MAX_SWEEP_LINES} lines allowed"
            )
    for name, box in listed:
        size = prod(hi - lo + 1 for lo, hi in box)
        if size > MAX_SCAN_POINTS:
            raise ValueError(
                f"{name} box has {size} points, more than the {MAX_SCAN_POINTS} allowed"
            )


def _span(value: int, c: int, lo: int, hi: int) -> tuple[int, int]:
    """The t in [lo, hi] with value + c*t >= 0, as (first, last), empty if
    first > last."""
    if c > 0:
        return max(lo, -(value // c)), hi
    if c < 0:
        return lo, min(hi, value // -c)
    return lo, hi if value >= 0 else lo - 1


def line_values(inequalities, box, projected=()):
    """``(prefix, values)`` per line of the box, prefixes of the first n-1
    coordinates in lexicographic order; ``box`` is one inclusive (lo, hi) per
    coordinate, and ``values[i]`` is <prefix, a_i[:-1]> + b_i for the i-th
    row (a_i, b_i). ``projected`` holds rows (a, b) on fewer coordinates,
    len(a) < n, that every prefix of a wanted point satisfies, such as the
    facets of a projection of the set: each bounds the head coordinate of
    its last nonzero coefficient, so lines whose prefix fails one are skipped.

    An odometer: each depth keeps the values of the rows it still needs at
    its prefix, adds one column when its coordinate steps and starts again
    from the depth above when it wraps, so a line costs one pass over the
    rows. A sweep whose box has more than ``MAX_SWEEP_LINES`` lines is
    refused before any range is built, by ``check_plan``.
    """
    check_plan(box)
    head = box[:-1]
    m = len(head)
    if not m:
        yield (), [b for _, b in inequalities]
        return
    levels = [{} for _ in range(m)]  # dicts drop the rows two projections share
    for a, b in projected:
        j = max((i for i, c in enumerate(a) if c), default=0)
        levels[j][tuple(a[: j + 1]), b] = None
    levels.append(inequalities)
    # depth j holds the rows of levels[j:]; its own level bounds coordinate j
    # and the rest step by column j
    lasts = [[a[-1] for a, _ in rows] for rows in levels]
    cols = [[a[j] for rows in levels[j + 1 :] for a, _ in rows] for j in range(m)]
    values = [[b for rows in levels for _, b in rows]] + [None] * m
    x = [0] * m
    tops = [0] * m
    j = 0
    while True:
        # enter depth j: the range of coordinate j at the prefix x[:j]
        first, last = head[j]
        here = values[j]
        for v, c in zip(here, lasts[j]):
            first, last = _span(v, c, first, last)
        if first <= last:
            col = cols[j]
            cur = [v + first * c for v, c in zip(here[len(lasts[j]) :], col)]
            if j < m - 1:
                x[j], tops[j], values[j + 1] = first, last, cur
                j += 1
                continue
            prefix = tuple(x[:j])
            yield prefix + (first,), cur
            for t in range(first + 1, last + 1):
                cur = list(map(add, cur, col))
                yield prefix + (t,), cur
        # step the deepest outer coordinate that has room; its deeper ones wrap
        j -= 1
        while j >= 0 and x[j] == tops[j]:
            j -= 1
        if j < 0:
            return
        x[j] += 1
        values[j + 1] = list(map(add, values[j + 1], cols[j]))
        j += 1


def sign_groups(inequalities):
    """``(order, ups, downs)``: the row indices with a positive last
    coefficient c first, then those with c < 0, then those with c = 0;
    ``ups`` holds c for the first group and ``downs`` -c for the second.
    On a line where row i has the value v at the prefix, it holds for
    t >= -(v // c) in the first group, for t <= v // -c in the second and
    on the whole line or nowhere, as v >= 0 or not, in the third. The
    line sweeps that read ``line_values`` run one plain loop per group.
    """
    order, ups, downs, flats = [], [], [], []
    for i, (a, _) in enumerate(inequalities):
        c = a[-1]
        if c > 0:
            order.append(i)
            ups.append(c)
        elif c < 0:
            downs.append((i, -c))
        else:
            flats.append(i)
    order += [i for i, _ in downs] + flats
    return order, ups, [c for _, c in downs]


def _line_bounds(inequalities, box, projected=()):
    """``(prefix, first, last)`` per line of ``line_values``: the t of the last
    coordinate's [lo, hi] where every row holds, empty if first > last. A
    row with last coefficient 0 depends on the prefix alone, so it joins the
    projected rows and the lines where it fails are never visited.
    """
    lo, hi = box[-1]
    order, ups, downs = sign_groups(inequalities)
    p, q = len(ups), len(ups) + len(downs)
    rows = [inequalities[i] for i in order]
    if len(box) > 1:
        projected = [*projected, *((a[:-1], b) for a, b in rows[q:])]
        rows = rows[:q]
    flat = len(rows) > q
    for prefix, values in line_values(rows, box, projected):
        first, last = lo, hi
        for v, c in zip(values, ups):
            t = -(v // c)
            if t > first:
                first = t
        for v, c in zip(values[p:], downs):
            t = v // c
            if t < last:
                last = t
        if flat and min(values[q:]) < 0:
            last = first - 1
        yield prefix, first, last


def lattice_points(inequalities, box, projected=()):
    """Integer points x of the box with <x, a> + b >= 0 for every (a, b), in
    ``line_values`` order. With no inequalities the whole box is enumerated."""
    for prefix, first, last in _line_bounds(inequalities, box, projected):
        for t in range(first, last + 1):
            yield prefix + (t,)


def count_lattice_points(inequalities, box, projected=()) -> int:
    """How many points ``lattice_points`` yields, from the length of each
    line's span, without yielding them."""
    total = 0
    for _, first, last in _line_bounds(inequalities, box, projected):
        if first <= last:
            total += last - first + 1
    return total


def dilate_box(poly: LatticePolytope, k: int) -> tuple[tuple[int, int], ...]:
    """Bounding box of the literal dilate kP, one inclusive (lo, hi) per
    coordinate, any integer k."""
    return tuple((min(k * lo, k * hi), max(k * lo, k * hi)) for lo, hi in poly.bounding_box())


def _dilate_rows(facets, k: int, strict: bool):
    """Facet inequalities of the literal dilate k*Q (strict: its interior).

    Scaling by a negative k reverses every facet inequality. On integer
    points a facet value v > 0 is v - 1 >= 0, so the interior is exact too.
    """
    sign = 1 if k >= 0 else -1
    return [(tuple(sign * c for c in f.normal), sign * k * f.offset - int(strict)) for f in facets]


def _dilate_system(poly: LatticePolytope, k: int, strict: bool):
    """Inequalities and box of the literal dilate kP (strict: its interior)."""
    return _dilate_rows(poly.facets, k, strict), dilate_box(poly, k)


def _projected_rows(poly: LatticePolytope, k: int, strict: bool):
    """The facet rows of every k*Q_j (strict: its interior), where Q_j is the
    projection of P onto coordinates 0..j. Every point of kP projects into
    k*Q_j, and every interior point into its interior, as projection maps
    open sets to open sets. Q_0 is the box's own range, and Q_{n-1} is P;
    the facets of the hulls in between are found once per polytope."""
    if "projections" not in poly._cache:
        poly._cache["projections"] = tuple(
            f
            for j in range(1, poly.dim - 1)
            for f in build_polytope({v[: j + 1] for v in poly.vertices}).facets
        )
    return _dilate_rows(poly._cache["projections"], k, strict)


def dilate_points(poly: LatticePolytope, k: int, strict: bool = False):
    """Lattice points of the literal dilate kP (strict: its interior), any
    integer k, swept over the projected lines only."""
    return lattice_points(*_dilate_system(poly, k, strict), _projected_rows(poly, k, strict))


def dilate_count(poly: LatticePolytope, k: int, strict: bool = False) -> int:
    """Lattice points of the literal dilate kP, boundary included or not;
    swept once per (|k|, strict) over the projected lines and then read from
    the polytope's table."""
    key = (abs(k), strict)
    if key not in poly._cache:
        k = abs(k)
        poly._cache[key] = count_lattice_points(
            *_dilate_system(poly, k, strict), _projected_rows(poly, k, strict)
        )
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
    check_plan(dilate_box(poly, n))
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


def reciprocity_table(poly: LatticePolytope, kmax: int) -> list[tuple[int, int, int]]:
    """Rows (k, (-1)^n E(k), interior lattice points of kP) for k = -1 .. -kmax.
    Before any count, ``check_plan`` reads the ``ehrhart`` command's plan:
    this table, and sweeps up to max(kmax, n+1)P, the splitting index's too."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    check_plan(dilate_box(poly, max(kmax, poly.dim + 1)), table=(poly, kmax))
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
    that (j+1)P has an interior lattice point. Its sweeps, up to (n+1)P,
    are checked against the line budget before the polynomial is counted.
    """
    n = poly.dim
    check_plan(dilate_box(poly, n + 1))
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
