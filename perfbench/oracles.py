"""Output oracles for the benchmark's ops, independent of the code under test
wherever a closed form exists.

Each oracle takes the op, its exit code and its parsed canonical JSON report,
and returns None when the report is right, or a one-line reason when it is
not. ``KNOWN_DEFECT`` marks the one wrong answer the program is known to give
(a false "facet irredundancy" FAIL from `verify` on some valid polygons); it
is reported separately from regressions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, factorial

from corpus import Op, Polytope, hull_2d

KNOWN_DEFECT = "known defect: verify reports a false facet-irredundancy FAIL"
KNOWN_DEFECT_CHECKS = ["facet irredundancy"]


# ---------------------------------------------------------------------------
# Ehrhart polynomials in closed form, coefficients low degree first


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pick(vertices) -> list[Fraction]:
    """Pick's theorem: E(k) = A k^2 + (B/2) k + 1 for a lattice polygon."""
    hull = hull_2d(vertices)
    twice_area = 0
    boundary = 0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    return [Fraction(1), Fraction(boundary, 2), Fraction(abs(twice_area), 2)]


def closed_form_ehrhart(p: Polytope) -> list[Fraction] | None:
    """Ehrhart coefficients for families with a closed form, else None."""
    dim = len(p.vertices[0])
    if dim == 2:
        return _pick(p.vertices)
    if p.family == "box":
        coeffs = [Fraction(1)]
        for side in p.params:
            coeffs = _poly_mul(coeffs, [Fraction(1), Fraction(side)])
        return coeffs
    if p.family == "simplex":
        # E(k) = C(e k + n, n) = prod_{j=1..n} (e k + j) / n!
        (edge,) = p.params
        coeffs = [Fraction(1)]
        for j in range(1, dim + 1):
            coeffs = _poly_mul(coeffs, [Fraction(j), Fraction(edge)])
        return [c / factorial(dim) for c in coeffs]
    if p.name == "CUBE3":
        return [Fraction(comb(3, i)) for i in range(4)]
    if p.name == "OCTA":
        return [Fraction(1), Fraction(8, 3), Fraction(2), Fraction(4, 3)]
    return None


def evaluate(coeffs, k: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


class EhrhartSource:
    """E(k) per polytope: closed form when the family has one, otherwise the
    program's `ehrhart` layer (a code path separate from the sheaf scan)."""

    def __init__(self, polytoric):
        self._pt = polytoric
        self._cache: dict[str, list[Fraction]] = {}

    def coefficients(self, p: Polytope) -> list[Fraction]:
        if p.name not in self._cache:
            coeffs = closed_form_ehrhart(p)
            if coeffs is None:
                poly = self._pt.build_polytope([list(v) for v in p.vertices])
                coeffs = list(self._pt.ehrhart_polynomial(poly).coefficients)
            self._cache[p.name] = coeffs
        return self._cache[p.name]


# ---------------------------------------------------------------------------
# per-command oracles


def check_cohomology(op: Op, code: int, report: dict, ehrhart: EhrhartSource) -> str | None:
    """H^* is |E(k)| free in degree 0 (k >= 0) or degree n (k < 0), no torsion."""
    if code != 0:
        return f"exit code {code}"
    n = len(op.polytope.vertices[0])
    k = int(op.args[op.args.index("--twist") + 1])
    expect_rank = abs(evaluate(ehrhart.coefficients(op.polytope), k))
    expect_deg = 0 if k >= 0 else n
    rows = report.get("perDegree")
    if not isinstance(rows, list) or [r.get("degree") for r in rows] != list(range(n + 1)):
        return "perDegree does not list degrees 0..n"
    for row in rows:
        want = expect_rank if row["degree"] == expect_deg else 0
        if row["free_rank"] != want:
            return f"H^{row['degree']} free rank {row['free_rank']}, expected {want}"
        if row["torsion"]:
            return f"H^{row['degree']} has torsion {row['torsion']}"
    return None


def check_faces(op: Op, code: int, report: dict) -> str | None:
    """Euler-Poincare relation on the f-vector, one top face, vertices from the input."""
    if code != 0:
        return f"exit code {code}"
    n = len(op.polytope.vertices[0])
    faces = report.get("faces")
    if not isinstance(faces, list) or not faces:
        return "no faces listed"
    fvec = [0] * (n + 1)
    for f in faces:
        if not 0 <= f["dim"] <= n:
            return f"face of dimension {f['dim']}"
        fvec[f["dim"]] += 1
    if fvec[n] != 1:
        return f"{fvec[n]} top faces"
    euler = sum((-1) ** i * fvec[i] for i in range(n))
    if euler != 1 - (-1) ** n:
        return f"Euler-Poincare fails on f-vector {fvec[:n]}"
    points = {tuple(v) for v in op.polytope.vertices}
    if any(tuple(v) not in points for f in faces if f["dim"] == 0 for v in f["vertices"]):
        return "a vertex is not an input point"
    return None


def check_ehrhart(op: Op, code: int, report: dict) -> str | None:
    """Closed-form coefficients where known, reciprocity, and its table."""
    if code != 0:
        return f"exit code {code}"
    if report.get("reciprocity_ok") is not True:
        return "reciprocity_ok is not true"
    coeffs = [Fraction(c) for c in report["coefficients"]]
    expected = closed_form_ehrhart(op.polytope)
    if expected is not None and coeffs != expected:
        return f"coefficients {report['coefficients']} differ from the closed form"
    n = len(op.polytope.vertices[0])
    for row in report["reciprocity_table"]:
        signed = (-1) ** n * evaluate(coeffs, row["k"])
        if signed != row["signed_value"] or row["signed_value"] != row["interior_points"]:
            return f"reciprocity table row k={row['k']} is inconsistent"
    return None


def check_verify(op: Op, code: int, report: dict) -> str | None:
    """Every named check passes."""
    if report.get("passed") is True and code == 0:
        if all(r.get("passed") is True for r in report.get("results", [])):
            return None
        return "passed is true but a check failed"
    failing = [r["name"] for r in report.get("results", []) if not r.get("passed")]
    if code == 1 and report.get("passed") is False and failing == KNOWN_DEFECT_CHECKS:
        return KNOWN_DEFECT
    return f"exit code {code}, failing checks {failing}"


def check(op: Op, code: int, report: dict, ehrhart: EhrhartSource) -> str | None:
    if report.get("command") != op.command:
        return f"report is for command {report.get('command')!r}"
    if op.command == "cohomology":
        return check_cohomology(op, code, report, ehrhart)
    if op.command == "faces":
        return check_faces(op, code, report)
    if op.command == "ehrhart":
        return check_ehrhart(op, code, report)
    if op.command == "verify":
        return check_verify(op, code, report)
    raise ValueError(f"no oracle for {op.command!r}")
