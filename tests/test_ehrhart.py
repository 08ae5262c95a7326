import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from polytoric import build_polytope
from polytoric import ehrhart as eh


# ---------------------------------------------------------------------------
# box-scan oracle for the line sweep


def dilate_contains(poly, k, x, strict=False):
    """Whether x lies in kP (strict: in the interior of kP), any integer k.

    Scaling by a negative k reverses every facet inequality, so membership
    in the literal dilate means all facet values <= 0 in that case.
    """
    sign = 1 if k >= 0 else -1
    for f in poly.facets:
        v = sign * (sum(c * nc for c, nc in zip(x, f.normal)) + k * f.offset)
        if v < 0 or (strict and v == 0):
            return False
    return True


def box_scan(box):
    return product(*(range(lo, hi + 1) for lo, hi in box))


def dot(x, a):
    return sum(p * q for p, q in zip(x, a))


def box_filter(rows, box):
    """Every point of the box, kept when <x, a> + b >= 0 for all rows."""
    return [x for x in box_scan(box) if all(dot(x, a) + b >= 0 for a, b in rows)]


def line_spans(inequalities, box):
    """``(prefix, spans)`` per line of the box, in ``line_values`` order: row
    (a, b) holds on the span ``(first, last)`` of t in the last coordinate's
    [lo, hi] with <prefix + (t,), a> + b >= 0, empty if first > last; the
    per-row span oracle."""
    lo, hi = box[-1]
    lasts = [a[-1] for a, _ in inequalities]
    for prefix, values in eh.line_values(inequalities, box):
        yield prefix, [eh._span(v, c, lo, hi) for v, c in zip(values, lasts)]


def check_line_spans(rows, box):
    """Every span of every line of ``line_spans`` against the per-row box
    filter of that line; returns the kinds of span seen."""
    *head, (lo, hi) = box
    lines = list(line_spans(rows, box))
    assert [prefix for prefix, _ in lines] == list(box_scan(head)), box
    seen = set()
    for prefix, spans in lines:
        assert len(spans) == len(rows), (prefix, box)
        for (a, b), (first, last) in zip(rows, spans):
            holds = [t for t in range(lo, hi + 1) if dot(prefix + (t,), a) + b >= 0]
            assert holds == list(range(first, last + 1)), (a, b, prefix, box)
            c = a[-1]
            if c:
                seen.add("span c > 0" if c > 0 else "span c < 0")
                # the row holds beyond both ends of the line
                if all(dot(prefix + (t,), a) + b >= 0 for t in (lo - 1, hi + 1)):
                    seen.add("span clipped at both ends")
            else:
                seen.add("span c = 0 holds" if holds else "span c = 0 fails")
            if not holds:
                seen.add("empty span")
    return seen


def test_span_count_equals_enumeration():
    rng = random.Random(21)
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        box = [tuple(sorted((rng.randint(-4, 4), rng.randint(-4, 4)))) for _ in range(n)]
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-6, 6))
            for _ in range(rng.choice((0, 0, 1, 2, 3, 5)))
        ]
        expected = sum(1 for _ in eh.lattice_points(rows, box))
        assert eh.count_lattice_points(rows, box) == expected, (rows, box)
        empty_span = any(f > l for _, spans in line_spans(rows, box) for f, l in spans)
        kinds |= {"no rows" if not rows else "rows", "empty" if not expected else "points"}
        kinds.add("an empty span" if empty_span else "no empty span")
    assert kinds == {"no rows", "rows", "empty", "points", "an empty span", "no empty span"}


def test_lattice_points_match_box_filter():
    rng = random.Random(20)
    drawn = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        span = (6, 4, 2, 1)[n - 1]
        try:
            poly = build_polytope(
                [[rng.randint(0, span) for _ in range(n)] for _ in range(n + 1 + rng.randint(0, 3))]
            )
        except ValueError:
            continue
        k = rng.randint(-4, 4)
        strict = rng.random() < 0.5
        box = [tuple(sorted((k * lo, k * hi))) for lo, hi in poly.bounding_box()]
        expected = [x for x in box_scan(box) if dilate_contains(poly, k, x, strict)]
        assert list(eh.dilate_points(poly, k, strict)) == expected, (poly.vertices, k, strict)

        sign = 1 if k >= 0 else -1
        rows = [
            (tuple(sign * c for c in f.normal), sign * k * f.offset - strict) for f in poly.facets
        ]
        case = rng.choice(("dilate", "facet left out", "zero last coefficient", "one-point box"))
        if case == "facet left out":
            # the set is unbounded; only the (wider) box bounds it
            rows.pop(rng.randrange(len(rows)))
            box = [(lo - 2, hi + 2) for lo, hi in box]
        elif case == "zero last coefficient":
            head = tuple(rng.randint(-2, 2) for _ in range(n - 1))
            rows.append((head + (0,), rng.randint(-3, 3)))
        elif case == "one-point box":
            box = [(c, c) for c in (rng.randint(lo - 1, hi + 1) for lo, hi in box)]
        got = list(eh.lattice_points(rows, box))
        assert got == box_filter(rows, box), (rows, box)
        drawn |= check_line_spans(rows, box)
        drawn |= {("dim", n), ("k", (k > 0) - (k < 0)), ("strict", strict), case}
        drawn.add("empty" if not got else "non-empty")
        drawn |= {"last > 0" if a[-1] > 0 else "last < 0" if a[-1] < 0 else "last = 0" for a, _ in rows}
    assert list(eh.lattice_points((), [(0, 1), (-1, 0)])) == [(0, -1), (0, 0), (1, -1), (1, 0)]
    assert drawn == {
        *(("dim", n) for n in (1, 2, 3, 4)),
        *(("k", s) for s in (-1, 0, 1)),
        ("strict", True),
        ("strict", False),
        "dilate",
        "facet left out",
        "zero last coefficient",
        "one-point box",
        "empty",
        "non-empty",
        "last > 0",
        "last < 0",
        "last = 0",
        "span c > 0",
        "span c < 0",
        "span c = 0 holds",
        "span c = 0 fails",
        "span clipped at both ends",
        "empty span",
    }


# ---------------------------------------------------------------------------
# the odometer line kernel against the box filter


def projected_prefixes(head, projected):
    """The prefixes of the head box, in lexicographic order, whose leading
    coordinates satisfy every projected row (a, b)."""
    return [x for x in box_scan(head) if all(dot(x[: len(a)], a) + b >= 0 for a, b in projected)]


def random_rows(rng, n, count):
    return [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-6, 6)) for _ in range(count)]


def test_line_values_are_the_dot_products_of_each_line():
    rng = random.Random(28)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        widths = (6, 5, 3, 2, 2)[n - 1]
        box = []
        for _ in range(n):
            lo = rng.randint(-3, 2)
            box.append((lo, lo + rng.randint(0, widths)))
        rows = random_rows(rng, n, rng.choice((0, 1, 3, 6)))
        # rows on the first 1 .. n-1 coordinates, zero coefficients included
        projected = [
            row
            for j in range(rng.randint(0, n - 1))
            for row in random_rows(rng, j + 1, rng.choice((0, 0, 1, 2)))
        ]
        lines = list(eh.line_values(rows, box, projected))
        prefixes = projected_prefixes(box[:-1], projected)
        assert [prefix for prefix, _ in lines] == prefixes, (rows, box, projected)
        for prefix, values in lines:
            assert values == [dot(prefix, a[:-1]) + b for a, b in rows], (prefix, rows)
        if not projected:
            assert len(lines) == prod(hi - lo + 1 for lo, hi in box[:-1])
        wraps = [len({prefix[j] for prefix in prefixes}) for j in range(n - 1)]
        seen.add(("dim", n))
        seen.add("no lines" if not lines else "lines")
        if n >= 3 and min(wraps[:-1], default=0) >= 2 and len(prefixes) > 4:
            seen.add("head coordinates wrap")
        if projected:
            seen.add("projected rows")
    assert seen >= {("dim", n) for n in range(1, 6)} | {
        "no lines", "lines", "head coordinates wrap", "projected rows"
    }


def test_line_values_wrap_head_coordinates_in_3_to_5_dimensions():
    for box in (
        [(-1, 2), (0, 3), (5, 5)],
        [(0, 2), (-2, 0), (-1, 1), (0, 1)],
        [(1, 2), (-1, 1), (0, 2), (-1, 0), (3, 4)],
    ):
        n = len(box)
        rows = [(tuple(range(1, n + 1)), -1), (tuple(-c for c in range(n, 0, -1)), 7)]
        lines = list(eh.line_values(rows, box))
        assert [prefix for prefix, _ in lines] == list(box_scan(box[:-1]))
        for prefix, values in lines:
            assert values == [dot(prefix, a[:-1]) + b for a, b in rows]
        assert list(eh.lattice_points(rows, box)) == box_filter(rows, box)
        assert eh.count_lattice_points(rows, box) == len(box_filter(rows, box))


@pytest.mark.parametrize("depth", ["outer", "inner"])
def test_an_empty_head_range_skips_its_lines(depth):
    box = [(0, 3), (-2, 2), (0, 4)]
    if depth == "outer":
        # x0 >= 10 leaves coordinate 0 no value in the box
        projected = [((1,), -10)]
        expected = []
    else:
        # x0 >= 1; then x0 - 1 <= x1 <= 3 - x0 leaves coordinate 1 no value at
        # x0 = 3, and the zero row x0 <= 2 fails there too
        projected = [((1,), -1), ((-1, 1), 1), ((-1, -1), 3), ((-1, 0), 2)]
        expected = [(1, 0), (1, 1), (1, 2), (2, 1)]
        assert projected_prefixes(box[:-1], projected) == expected
    rows = [((0, 1, 1), 0), ((1, 1, -1), 1)]
    lines = list(eh.line_values(rows, box, projected))
    assert [prefix for prefix, _ in lines] == expected
    for prefix, values in lines:
        assert values == [dot(prefix, a[:-1]) + b for a, b in rows]
    assert list(eh.lattice_points(rows, box, projected)) == [
        x for x in box_filter(rows, box) if x[:-1] in expected
    ]


def test_line_values_in_one_dimension_and_on_one_point_boxes():
    rows = [((2,), -1), ((-1,), 3), ((0,), 0)]
    assert list(eh.line_values(rows, [(-5, 5)])) == [((), [-1, 3, 0])]
    assert list(eh.lattice_points(rows, [(-5, 5)])) == [(1,), (2,), (3,)]
    assert eh.count_lattice_points([((0,), -1)], [(-5, 5)]) == 0
    for box in ([(2, 2)], [(1, 1), (-1, -1)], [(0, 0), (3, 3), (-2, -2), (1, 1)]):
        rows = [(tuple(range(1, len(box) + 1)), 1)]
        (line,) = eh.line_values(rows, box)
        assert line == (tuple(lo for lo, _ in box[:-1]), [dot(line[0], rows[0][0]) + 1])
        assert list(eh.lattice_points(rows, box)) == box_filter(rows, box)


def test_sign_groups_order_the_rows_and_read_where_each_holds():
    rows = [((1, 0), 0), ((0, -2), 5), ((3, 0), -1), ((1, 3), 2), ((-1, -1), 4), ((2, 2), 0)]
    order, ups, downs = eh.sign_groups(rows)
    assert (order, ups, downs) == ([3, 5, 1, 4, 0, 2], [3, 2], [2, 1])
    p, q = len(ups), len(ups) + len(downs)
    line = range(-9, 10)
    for v in range(-7, 8):  # a row's value at the prefix
        for c in ups:
            assert [t for t in line if v + c * t >= 0] == [t for t in line if t >= -(v // c)]
        for c in downs:
            assert [t for t in line if v - c * t >= 0] == [t for t in line if t <= v // c]
    assert [rows[i][0][-1] for i in order[q:]] == [0, 0] and p == 2
    assert eh.sign_groups([]) == ([], [], [])


def test_rows_with_zero_last_coefficient_skip_the_lines_where_they_fail(monkeypatch):
    visited = []
    original = eh.line_values

    def counting(*args):
        for line in original(*args):
            visited.append(line[0])
            yield line

    monkeypatch.setattr(eh, "line_values", counting)
    rows = [((1, 0), -2), ((0, 1), 0)]  # x >= 2 bounds the head, y >= 0 the line
    assert eh.count_lattice_points(rows, [(0, 5), (-1, 1)]) == 4 * 2
    assert visited == [(2,), (3,), (4,), (5,)]
    visited.clear()
    assert eh.count_lattice_points([((0,), -1)], [(-5, 5)]) == 0  # n = 1: one empty line
    assert visited == [()]


def random_polytope(rng, n):
    span = (6, 4, 2, 1, 1)[n - 1]
    count = n + 1 + rng.randint(0, 4)
    points = [[rng.randint(-span // 2, span) for _ in range(n)] for _ in range(count)]
    if rng.random() < 0.3:
        # a prism over a face: every facet along the last axis has a zero last coefficient
        points += [p[:-1] + [p[-1] + 1] for p in points]
    return build_polytope(points)


def test_projected_dilates_equal_the_box_filter_in_order():
    rng = random.Random(2028)
    seen = set()
    for _ in range(160):
        n = rng.randint(1, 5)
        try:
            poly = random_polytope(rng, n)
        except ValueError:
            continue
        k = rng.randint(-3, 3) if n < 5 else rng.choice((-2, -1, 1, 2))
        strict = rng.random() < 0.5
        rows, box = eh._dilate_system(poly, k, strict)
        expected = box_filter(rows, box)
        assert list(eh.dilate_points(poly, k, strict)) == expected, (poly.vertices, k, strict)
        fresh = build_polytope(poly.vertices)  # an empty count table
        assert eh.dilate_count(fresh, k, strict) == len(expected), (poly.vertices, k, strict)
        seen |= {("dim", n), ("k", (k > 0) - (k < 0)), ("strict", strict)}
        if any(not f.normal[-1] for f in poly.facets):
            seen.add("zero last coefficient")
        seen.add("empty" if not expected else "points")
    assert seen >= {("dim", n) for n in range(1, 6)} | {("k", s) for s in (-1, 0, 1)} | {
        ("strict", True), ("strict", False), "zero last coefficient", "empty", "points"
    }


def test_projected_sweep_of_a_simplex_visits_fewer_lines_than_its_box(monkeypatch):
    # 5 * the unit 3-simplex: its box has 6 * 6 head lines, its projection
    # onto the first two coordinates, the triangle 5 * TRI, has 21 points
    simplex = build_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    visited = []
    original = eh.line_values

    def counting(*args):
        for line in original(*args):
            visited.append(line[0])
            yield line

    monkeypatch.setattr(eh, "line_values", counting)
    assert eh.dilate_count(simplex, 5) == 56
    assert len(visited) == 21 < 6 * 6
    assert visited == [(x, y) for x in range(6) for y in range(6) if x + y <= 5]
    visited.clear()
    assert len(list(eh.dilate_points(simplex, -5, strict=True))) == 4
    assert len(visited) < 6 * 6


def test_count_points_examples(corpus):
    assert eh.count_points(corpus["TRI"], 2) == 6
    assert eh.count_points(corpus["SQ"], 3) == 16
    for poly in corpus.values():
        assert eh.count_points(poly, 0) == 1


def test_count_points_triangle_listing(corpus):
    # hand enumeration of 2*TRI
    pts = {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)}
    found = {
        (x, y)
        for x in range(0, 3)
        for y in range(0, 3)
        if dilate_contains(corpus["TRI"], 2, (x, y))
    }
    assert found == pts


def test_count_points_preconditions(corpus):
    with pytest.raises(ValueError):
        eh.count_points(corpus["SQ"], -1)
    with pytest.raises(ValueError):
        eh.count_points(corpus["SQ"], 0, interior=True)
    assert eh.count_points(corpus["SQ"], 1, interior=True) == 0
    assert eh.count_points(corpus["SQ2"], 1, interior=True) == 1


def test_polynomials(corpus):
    assert eh.ehrhart_polynomial(corpus["SEG"]).coefficients == (1, 1)
    assert eh.ehrhart_polynomial(corpus["TRI"]).coefficients == (
        1,
        Fraction(3, 2),
        Fraction(1, 2),
    )
    assert eh.ehrhart_polynomial(corpus["SQ"]).coefficients == (1, 2, 1)
    assert eh.ehrhart_polynomial(corpus["CUBE"]).coefficients == (1, 3, 3, 1)
    assert eh.ehrhart_polynomial(corpus["TRI2"]).coefficients == (1, 3, 2)


def test_polynomial_extrapolates(corpus):
    for poly in corpus.values():
        ehr = eh.ehrhart_polynomial(poly)
        for k in range(poly.dim + 3):
            assert ehr.value_at_integer(k) == eh.count_points(poly, k)


def test_reciprocity_values(corpus):
    tri = corpus["TRI"]
    ehr = eh.ehrhart_polynomial(tri)
    assert [ehr.value_at_integer(-j) for j in (1, 2, 3)] == [0, 0, 1]
    assert eh.dilate_count(tri, -3, strict=True) == 1
    # the interior point of -3*TRI is (-1,-1)
    assert dilate_contains(tri, -3, (-1, -1), strict=True)
    assert eh.reciprocity_check(tri, 3)

    seg = corpus["SEG"]
    assert [eh.dilate_count(seg, -j, strict=True) for j in (1, 2, 3)] == [0, 1, 2]
    assert eh.reciprocity_check(seg, 3)

    sq2 = corpus["SQ2"]
    assert eh.ehrhart_polynomial(sq2).value_at_integer(-1) == 1
    assert dilate_contains(sq2, -1, (-1, -1), strict=True)
    assert eh.reciprocity_check(sq2, 1)


def test_reciprocity_on_whole_corpus(corpus):
    for poly in corpus.values():
        assert eh.reciprocity_check(poly, poly.dim + 2)


def test_reciprocity_over_budget_is_refused_before_counting(corpus, monkeypatch):
    # the boxes of -1*TRI .. -3*TRI hold 4 + 9 + 16 points
    tri = corpus["TRI"]
    monkeypatch.setattr(eh, "MAX_RECIPROCITY_POINTS", 29)
    assert eh.reciprocity_check(tri, 3)
    monkeypatch.setattr(eh, "MAX_RECIPROCITY_POINTS", 28)

    def no_counting(*args):
        raise AssertionError("dilate counted despite the budget")

    monkeypatch.setattr(eh, "dilate_count", no_counting)
    monkeypatch.setattr(eh, "ehrhart_polynomial", no_counting)
    with pytest.raises(ValueError, match="28 box points"):
        eh.reciprocity_check(tri, 3)


def test_sweep_over_line_budget_is_refused_before_any_range(monkeypatch):
    # 2*TRI sweeps 3 lines, one per first coordinate 0..2
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    lines = []
    original = eh.line_values

    def counting(*args):
        for line in original(*args):
            lines.append(line[0])
            yield line

    monkeypatch.setattr(eh, "line_values", counting)
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 3)
    assert eh.count_lattice_points(*eh._dilate_system(tri, 2, False)) == 6
    assert lines == [(0,), (1,), (2,)]  # the wrapper sees an accepted sweep
    lines.clear()
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 2)
    with pytest.raises(ValueError, match="a sweep of 3 lines is more than the 2 lines allowed"):
        eh.dilate_count(tri, 2)
    assert lines == []


def test_reciprocity_reads_the_line_budget_of_its_largest_sweep(monkeypatch):
    # TRI's table up to 3 sweeps 3P last, 4 lines; up to 1 the splitting
    # index's 3P is the largest, as the ehrhart command runs it next, and the
    # polynomial's 2P has 3 lines
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 4)
    assert eh.reciprocity_check(tri, 3)
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])  # an empty count table
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 3)
    sweeps = []
    original = eh.line_values
    monkeypatch.setattr(eh, "line_values", lambda *a: sweeps.append(a) or original(*a))
    with pytest.raises(ValueError, match="a sweep of 4 lines is more than the 3 lines allowed"):
        eh.reciprocity_table(tri, 3)
    with pytest.raises(ValueError, match="a sweep of 4 lines is more than the 3 lines allowed"):
        eh.reciprocity_table(tri, 1)
    with pytest.raises(ValueError, match="a sweep of 4 lines is more than the 3 lines allowed"):
        eh.splitting_index(tri)
    assert sweeps == []
    # the polynomial alone sweeps up to 2P, 3 lines
    assert eh.ehrhart_polynomial(tri).coefficients == (1, Fraction(3, 2), Fraction(1, 2))
    sweeps.clear()
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 2)
    with pytest.raises(ValueError, match="a sweep of 3 lines is more than the 2 lines allowed"):
        eh.ehrhart_polynomial(build_polytope([[0, 0], [1, 0], [0, 1]]))
    assert sweeps == []
    # the wrapper sees the sweeps of an accepted table
    monkeypatch.setattr(eh, "MAX_SWEEP_LINES", 4)
    assert eh.reciprocity_check(tri, 3)
    assert len(sweeps) >= 3


def test_huge_coordinate_is_refused_by_the_line_budget():
    # a first coordinate of 10^30 once ended in an OverflowError from range
    wide = build_polytope([[0, 0], [10**30, 0], [0, 1]])
    with pytest.raises(ValueError, match=f"{10**30 + 1} lines is more than the 1000000"):
        eh.dilate_count(wide, 1)
    with pytest.raises(ValueError, match="lines allowed"):
        eh.ehrhart_polynomial(wide)


def test_interior_of_minus_jP_and_of_jP_count_alike(corpus):
    # the symmetry that lets the count table keep one column for both; the
    # uncached kernel counts -jP literally, the box scan counts jP
    for name, poly in corpus.items():
        for j in range(1, poly.dim + 3):
            literal = eh.count_lattice_points(*eh._dilate_system(poly, -j, True))
            box = [(j * lo, j * hi) for lo, hi in poly.bounding_box()]
            scanned = sum(1 for x in box_scan(box) if dilate_contains(poly, j, x, strict=True))
            assert literal == scanned, (name, j)


def test_count_table_sweeps_each_dilate_once_per_polytope(monkeypatch):
    poly = build_polytope([[0, 0], [2, 0], [0, 3]])  # fresh, so the table is empty
    sweeps = []
    original = eh.count_lattice_points

    def counting(rows, box, projected=()):
        sweeps.append((rows, box))
        return original(rows, box, projected)

    monkeypatch.setattr(eh, "count_lattice_points", counting)
    assert eh.dilate_count(poly, -3, strict=True) == eh.dilate_count(poly, 3, strict=True)
    assert eh.dilate_count(poly, 3) == eh.count_points(poly, 3)
    eh.splitting_index(poly)
    eh.reciprocity_check(poly, 4)
    eh.ehrhart_polynomial(poly)
    assert eh.ehrhart_polynomial(poly) is eh.ehrhart_polynomial(poly)
    # (3, True) and (3, False); k = 0 .. 2 for the polynomial; the interiors
    # of 1P, 2P and 4P for the splitting index and reciprocity
    assert len(sweeps) == 2 + 3 + 3
    assert set(poly._cache) == {
        "ehrhart_polynomial",
        "projections",
        *((k, False) for k in range(4)),
        *((j, True) for j in range(1, 5)),
    }
    assert poly._cache["projections"] == ()  # a 2D polytope projects to its box


def test_splitting_indices(corpus):
    expected = {"TRI": 2, "SEG": 1, "SQ": 1, "SQ2": 0, "CUBE": 1, "TRI2": 1}
    for name, k in expected.items():
        assert eh.splitting_index(corpus[name]) == k, name


def test_splitting_index_dual_description(corpus):
    for poly in corpus.values():
        k = eh.splitting_index(poly)
        # (k+1)P has an interior point, kP does not
        assert eh.dilate_count(poly, k + 1, strict=True) > 0
        if k > 0:
            assert eh.dilate_count(poly, k, strict=True) == 0


def test_roots_form_consecutive_block(corpus):
    for poly in corpus.values():
        roots = eh.ehrhart_polynomial(poly).integral_roots()
        assert set(roots) == {-j for j in range(1, len(roots) + 1)}


def test_dilation_compatibility(corpus):
    for name in ("SEG", "TRI"):
        poly = corpus[name]
        base = eh.ehrhart_polynomial(poly)
        for m in (2, 3):
            scaled = build_polytope([[m * c for c in v] for v in poly.vertices])
            big = eh.ehrhart_polynomial(scaled)
            # E_{mP}(T) = E_P(mT), coefficientwise c_i m^i
            expected = tuple(c * m**i for i, c in enumerate(base.coefficients))
            assert big.coefficients == expected


def test_polynomial_invariants_are_enforced():
    with pytest.raises(ValueError):
        eh.EhrhartPolynomial((Fraction(2), Fraction(1)))  # constant term must be 1
    with pytest.raises(ValueError):
        eh.EhrhartPolynomial((Fraction(1), Fraction(-1)))  # negative leading
