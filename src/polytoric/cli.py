"""Command line interface: faces, classify, ehrhart, cohomology, verify.

Polytopes are read from JSON files of the form {"vertices": [[int, ...], ...]};
the ambient dimension is inferred from the first vertex. Reports are emitted
as canonical JSON (sorted keys, rationals as "p/q" strings, integers beyond
the 53-bit safe range as strings) so that parsing and re-serialising a report
is byte-identical. Exit codes: 0 success, 1 a failed check (a verify FAIL
or an internal ``RuntimeError`` or ``ArithmeticError``), 2 bad input: any
``ValueError``, argparse's usage errors included, is one ``error:`` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import boundary as bd
from . import classify as cl
from . import ehrhart as eh
from . import sheaf as sh
from . import verify as vf
from .linalg import is_prime
from .polytope import build_polytope, face_lattice

SAFE_INT = 2**53


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_value(obj):
    if isinstance(obj, int):  # bools too, which lie inside the bounds
        return obj if -SAFE_INT < obj < SAFE_INT else str(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_value(v) for v in obj]
    # last, as its isinstance check goes through the numbers ABC
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(canonical_value(obj), sort_keys=True, separators=(",", ":"))


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part.strip()) for part in text.split(","))


def load_polytope(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    except (ValueError, RecursionError) as err:
        # bad JSON, bytes that are not UTF-8, nesting past the recursion
        # limit, an integer over Python's 4300-digit conversion limit
        raise ValueError(f"malformed JSON in {path}: {err}") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError('input must be a JSON object with a "vertices" key')
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(p, list) for p in vertices):
        raise ValueError(
            '"vertices" must be a list of coordinate lists, like [[0, 0], [1, 0], [0, 1]]'
        )
    poly = build_polytope(vertices)
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return poly, digest


# ---------------------------------------------------------------------------
# subcommands: each returns (exit_code, report dict, human lines)


def cmd_faces(args):
    poly, digest = load_polytope(args.input)
    lat = face_lattice(poly)
    lines = [f"{len(lat.faces)} faces"]
    face_rows = []
    for f in lat.faces:
        lines.append(f"  [{f.id}] dim {f.dim}: {lat.face_label(f.id)}")
        face_rows.append(
            {"id": f.id, "dim": f.dim, "vertices": [list(v) for v in lat.vertex_coords(f.id)]}
        )
    report = {"command": "faces", "input_digest": digest, "faces": face_rows}
    if args.star is not None:
        point = parse_point(args.star)
        if any(c.denominator != 1 for c in point):
            raise ValueError(f"--star needs integer vertex coordinates, got {args.star!r}")
        coords = tuple(int(c) for c in point)
        if coords not in poly.vertices:
            raise ValueError(f"{coords} is not a vertex of the polytope")
        fid = lat.face_by_vertices(1 << poly.vertices.index(coords))
        table = {
            "star": bd.star(lat, fid),
            "closed_star": bd.closed_star(lat, fid),
            "link": bd.link(lat, fid),
            "open_antistar": bd.open_antistar(lat, fid),
            "closed_antistar": bd.closed_antistar(lat, fid),
        }
        report["star_of"] = list(coords)
        star_report = {}
        for name, subset in table.items():
            star_report[name] = sorted(subset.members)
            lines.append(f"{name} of vertex {coords}:")
            for label in subset.labels():
                lines.append(f"    {label}")
        report["star_table"] = star_report
    return 0, report, lines


def cmd_classify(args):
    poly, digest = load_polytope(args.input)
    lat = face_lattice(poly)
    kind = {"vis": "visibility", "frontback": "frontback", "lowup": "lowerupper"}[args.kind]
    x = parse_point(args.x)
    c = cl.classify(lat, kind, x)
    names = {
        "visibility": ("Inv", "Vis", "dInv"),
        "frontback": ("Front", "Back", "dFront"),
        "lowerupper": ("Up", "Low", "dUp"),
    }[kind]
    sides = (c.filter_side, c.complex_side, c.boundary)
    lines = [f"{kind} classification at x = {args.x}"]
    report = {
        "command": "classify",
        "input_digest": digest,
        "kind": kind,
        "x": [Fraction(v) for v in x],
    }
    for name, side in zip(names, sides):
        report[name] = sorted(side.members)
        lines.append(f"{name} ({len(side)} faces):")
        for label in side.labels():
            lines.append(f"    {label}")
    return 0, report, lines


def cmd_ehrhart(args):
    if args.kmax is not None and args.kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {args.kmax}")
    poly, digest = load_polytope(args.input)
    kmax = args.kmax if args.kmax is not None else poly.dim + 2
    # the table checks the command's whole plan first, so nothing is swept over budget
    rows = eh.reciprocity_table(poly, kmax)
    ehr = eh.ehrhart_polynomial(poly)
    index = eh.splitting_index(poly)
    roots = ehr.integral_roots()
    recip = all(signed == interior for _, signed, interior in rows)
    lines = [
        "Ehrhart coefficients (low degree first): "
        + ", ".join(str(c) for c in ehr.coefficients),
        f"integral roots: {list(roots)}",
        f"splitting index: {index}",
        f"reciprocity up to {kmax}: {'ok' if recip else 'FAILED'}",
    ]
    table = []
    for k, signed, interior in rows:
        table.append({"k": k, "signed_value": signed, "interior_points": interior})
        lines.append(f"  k={k}: (-1)^n E(k) = {signed}, interior of kP has {interior}")
    report = {
        "command": "ehrhart",
        "input_digest": digest,
        "coefficients": list(ehr.coefficients),
        "integral_roots": list(roots),
        "splitting_index": index,
        "reciprocity_ok": recip,
        "reciprocity_table": table,
    }
    return (0 if recip else 1), report, lines


def _parse_ring(tag: str) -> str:
    """Ring of a ``--ring`` tag (Zp:<p> is Z/<p>), by ``linalg.normalize_ring``'s
    rule for p; an error names the tag as given, with ``is_prime``'s reason
    when it refuses p. No p of more than 4300 digits is read, Python's
    default limit for int()."""
    p = tag[3:] if tag.startswith("Zp:") else ""
    if tag in ("Z", "Q"):
        return tag
    if p.isascii() and p.isdigit() and p[0] != "0" and len(p) <= 4300:
        try:
            if is_prime(int(p)):
                return "Z/" + p
        except ValueError as err:
            raise ValueError(f"bad ring tag {tag!r} ({err})") from None
    raise ValueError(f"bad ring tag {tag!r} (expected Z, Q or Zp:<p>, p prime)")


def cmd_cohomology(args):
    ring = _parse_ring(args.ring)
    poly, digest = load_polytope(args.input)
    lat = face_lattice(poly)
    g = sh.global_cohomology(lat, args.twist, ring)
    lines = [f"H^*(X_P; F({args.twist})) over {ring}"]
    per_degree = []
    for d in range(poly.dim + 1):
        per_degree.append({"degree": d, "free_rank": g.free[d], "torsion": list(g.torsion[d])})
        tors = f" torsion {list(g.torsion[d])}" if g.torsion[d] else ""
        lines.append(f"  H^{d}: free rank {g.free[d]}{tors}")
    lines.append(f"contributors: {len(g.contributors)}")
    for x, d in g.contributors:
        lines.append(f"    x={x} in degree {d}")
    lines.append(f"shell certified: {g.shell_certified}")
    report = {
        "command": "cohomology",
        "input_digest": digest,
        "twist": args.twist,
        "ring": ring,
        "perDegree": per_degree,
        "contributors": [{"x": list(x), "degree": d} for x, d in g.contributors],
        "scanBox": [list(b) for b in g.scan_box],
        "shellCertified": g.shell_certified,
    }
    return 0, report, lines


def cmd_verify(args):
    poly, digest = load_polytope(args.input)
    lat = face_lattice(poly)
    started = time.monotonic()
    results = vf.run_suite(lat, args.suite, seed=args.seed)
    elapsed = time.monotonic() - started
    lines = []
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{mark} {r.name}{detail}")
    passed = all(r.passed for r in results)
    lines.append(
        f"{'PASS' if passed else 'FAIL'}: {sum(r.passed for r in results)}/{len(results)} checks"
    )
    print(f"suite '{args.suite}' took {elapsed:.1f}s", file=sys.stderr)
    report = {
        "command": "verify",
        "input_digest": digest,
        "suite": args.suite,
        "seed": args.seed,
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": passed,
    }
    return (0 if passed else 1), report, lines


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is bad input, reported by ``main`` like any other."""
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use, then shared by every ``main`` call in the process;
    its subcommand parsers are ``_Parser`` too."""
    parser = _Parser(
        prog="polytoric",
        description="Exact combinatorics and sheaf cohomology of lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="polytope JSON file")
        p.add_argument("--json", action="store_true", help="print a canonical JSON report")

    p = sub.add_parser("faces", help="list the face lattice")
    add_common(p)
    p.add_argument("--star", help='vertex coordinates "c1,c2,..." for a star/link table')
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("classify", help="visible/front/lower partitions")
    add_common(p)
    p.add_argument("--kind", required=True, choices=("vis", "frontback", "lowup"))
    p.add_argument("--x", required=True, help='point or direction "c1,c2,..." (rationals p/q ok)')
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial, roots, splitting index")
    add_common(p)
    p.add_argument("--kmax", type=int, help="reciprocity table depth (default n+2)")
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("cohomology", help="twisted sheaf cohomology")
    add_common(p)
    p.add_argument("--twist", type=int, required=True)
    p.add_argument("--ring", default="Z", help="Z, Q or Zp:<p>")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("verify", help="run an invariant suite")
    add_common(p)
    p.add_argument("--suite", default="all", choices=vf.SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def _attach_point_values(argv: list[str]) -> list[str]:
    """``--x -2,0`` as ``--x=-2,0``: argparse would read a point with a
    negative first coordinate as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--star", "--x") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command. The one place a refusal is reported: a ``ValueError``
    is bad input (exit 2), a ``RuntimeError`` or ``ArithmeticError`` a failed
    internal check (exit 1), each on one ``error:`` line."""
    argv = _attach_point_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        code, report, lines = args.func(args)
    except SystemExit as err:  # --help
        return 2 if err.code not in (0, None) else 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as err:
        print(f"error: internal check failed: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_json(report))
    else:
        for line in lines:
            print(line)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
