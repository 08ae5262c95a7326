"""Named invariant suites over a single polytope, used by the CLI.

Each check returns a CheckResult; a suite is a list of them. Everything is
deterministic for a fixed seed. ``run_suite`` hands the work plan of the
selected suites to ``ehrhart.check_plan`` before the first one runs, so an
input over a budget is refused before any work. The cohomology suite runs
its twist face set checks once per facet-sign class realized on the scan
box, read off the scan cache, not once per point. Ball and sphere sets go
through ``homology.face_set_complexes``, the route of the sheaf's sign
classes, and share its complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from . import boundary as bd
from . import classify as cl
from . import ehrhart as eh
from . import homology as hm
from . import sheaf as sh
from .linalg import vec_neg
from .polytope import FaceLattice, iter_bits, transpose_bits, union_over


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


SUITES = ("all", "combinatorics", "ehrhart", "cohomology", "classify")
VIEWPOINTS = 4  # sampled per classification kind by the classify suite
TWISTS = range(-3, 4)  # swept by the cohomology suite


def _check(results: list[CheckResult], name: str, passed: bool, detail: str = "") -> None:
    results.append(CheckResult(name, bool(passed), detail))


def face_set_cohomology(*subsets: bd.FaceSubset) -> list[tuple[int, ...] | None]:
    """Per convex face set of one lattice, the degrees of the free generators
    over Z, in order and one per rank, of the face complex restricted to it;
    None if it has torsion. The sets go through one batch of
    ``homology.face_set_complexes``."""
    lattice = subsets[0].lattice
    live = transpose_bits([s.mask for s in subsets], len(lattice))
    out = []
    for cx in hm.face_set_complexes(lattice, live, len(subsets)):
        sizes = [len(layer) for layer in cx.basis_labels]
        if sum(sizes) <= 1:  # at most one cell, Z in its own dimension: no Smith form
            out.append(tuple(d for d, size in enumerate(sizes, cx.start_degree) if size))
        else:
            res = hm.cohomology(cx, "Z")
            free = tuple(d for d, r in enumerate(res.free, res.start_degree) for _ in range(r))
            out.append(None if res.has_torsion() else free)
    return out


def partition_checks(c: cl.Classification) -> tuple[bool, bool]:
    """Partition structure and ball/sphere homology of one classification.

    The structure: non-empty sides, an order filter and a subcomplex that
    partition ∂P, with boundary closure(filter) meet complex side. Given it,
    the homology says that the nerves of the complex side, of closure(filter)
    and of the filter side F are acyclic and the boundary's is an (n-2)-sphere.
    A closed set's nerve subdivides it, so on the face complex it is Z in
    degree 0, or in degrees 0 and n-2. F restricts to C^*(∂P, K), K the
    complex side, and Δ(F) is a deformation retract of |∂P| - |K|. Lefschetz
    duality in the (n-1)-sphere, H^i(∂P, K) = H_(n-1-i)(|∂P| - |K|), makes
    Δ(F) acyclic iff that restriction is Z in degree n-1 only.
    """
    lattice = c.filter_side.lattice
    filt, cplx = c.filter_side.mask, c.complex_side.mask
    closed = bd.closure(c.filter_side)
    structure = bool(
        filt and cplx and not filt & cplx and filt | cplx == lattice.proper_mask
        and bd.is_order_filter(c.filter_side) and bd.is_subcomplex(c.complex_side)
        and c.boundary.mask == closed.mask & cplx
    )
    if not structure:
        return False, False
    n = lattice.polytope.dim
    sets = [c.complex_side, closed, c.filter_side] + [c.boundary] * (n > 1)
    expected = [(0,), (0,), (n - 1,)] + [(0, n - 2)] * (n > 1)
    return True, face_set_cohomology(*sets) == expected


# ---------------------------------------------------------------------------


def combinatorics_suite(lattice: FaceLattice) -> list[CheckResult]:
    out: list[CheckResult] = []
    poly = lattice.polytope
    n = poly.dim

    # facet irredundancy on a box around the polytope: leaving any one facet
    # out must admit more of the box's points
    box = [(-3, max(hi for _, hi in poly.bounding_box()) + 3)] * n
    rows = [(f.normal, f.offset) for f in poly.facets]

    full = eh.count_lattice_points(rows, box)
    irredundant = all(
        eh.count_lattice_points(rows[:skip] + rows[skip + 1 :], box) > full
        for skip in range(len(rows))
    )
    _check(out, "facet irredundancy", irredundant)

    proper = range(lattice.top_id)
    euler = sum((-1) ** lattice.dims[f] for f in proper)
    _check(out, "Euler relation", euler == 1 + (-1) ** (n - 1), f"sum={euler}")

    # join(a, b) is the least upper bound: its up-set is the common up-set.
    # This implies commutativity, idempotence and associativity.
    above = lattice.above_masks
    ids = range(len(lattice))
    ok = all(above[a] & above[b] == above[lattice.join(a, b)] for a in ids for b in ids)
    _check(out, "join is a semilattice operation", ok)

    # the vertices on all of the facets through a face are exactly its vertices
    every_vertex = (1 << len(poly.vertices)) - 1
    on = poly.incidence
    galois = all(
        reduce(and_, map(on.__getitem__, iter_bits(lattice.facet_masks[f])), every_vertex)
        == lattice.vertex_masks[f]
        for f in ids
    )
    _check(out, "vertex/facet Galois correspondence", galois)

    # One pass over the proper faces, each operator called once per face. Face
    # ids extend the face order, so walking them downwards has every link(b),
    # b above a, at hand. b <= F v A iff F v A lies above b, so the closed
    # star of A inside link(b) is link(b) less the faces whose join with A
    # lies above b.
    ops = (bd.star, bd.closed_star, bd.open_antistar, bd.closed_antistar, bd.link)
    modes_agree = ast_closure = link_eq = star_in_link = filters = True
    links: dict[int, bd.FaceSubset] = {}
    for a in reversed(proper):
        st, cst, oast, cast, lk = (op(lattice, a) for op in ops)
        links[a] = lk
        by_join = bd.joins_with(lattice, a)
        j_oast = by_join[lattice.top_id]
        j_cst = lattice.proper_mask & ~j_oast
        j_star = sum(m & 1 << h for h, m in enumerate(by_join))
        j_cast = union_over(lattice.below_masks, j_oast)
        modes_agree = modes_agree and (st.mask, cst.mask, oast.mask, cast.mask, lk.mask) == (
            j_star, j_cst, j_oast, j_cast, j_cst & ~j_star
        )
        ast_closure = ast_closure and cast.mask == bd.closure(oast).mask
        link_eq = link_eq and lk.mask == cst.mask & ~st.mask == cast.mask & ~oast.mask
        for b in iter_bits(st.mask & ~(1 << a)):
            lk_b = links[b]
            rhs = lk_b.mask & ~union_over(by_join, above[b])
            if a not in lk_b or bd.closed_star_within(lk_b, a).mask != rhs:
                star_in_link = False
        filters = filters and bd.is_order_filter(st) and bd.is_order_filter(oast)
        filters = filters and all(map(bd.is_subcomplex, (cst, cast, lk)))
    _check(out, "star/link/antistar: definitional = combinatorial", modes_agree)
    _check(out, "closed antistar is the closure of the open antistar", ast_closure)
    _check(out, "link = closed star minus star = closed antistar minus antistar", link_eq)
    _check(out, "closed star inside a link via joins", star_in_link)
    _check(out, "stars/antistars are filters, closed sets are subcomplexes", filters)

    # the boundary nerve subdivides ∂P, so it is an (n-1)-sphere in homology
    # iff the face complex without its top face is Z in degrees 0 and n-1
    sphere = face_set_cohomology(bd.boundary_complex(lattice)) == [(0, n - 1)]
    _check(out, "boundary nerve has sphere homology", sphere)

    dcx = hm.face_cochain_complex(lattice)
    point = True
    for ring in ("Z", "Q", "Z/2", "Z/3"):
        res = hm.cohomology(dcx, ring)
        point = point and res.free_rank(0) == 1 and not res.has_torsion()
        point = point and all(res.free_rank(d) == 0 for d in range(1, n + 1))
    _check(out, "face cochain complex has point cohomology over Z, Q, Z/2, Z/3", point)
    return out


# ---------------------------------------------------------------------------


def ehrhart_suite(lattice: FaceLattice) -> list[CheckResult]:
    out: list[CheckResult] = []
    poly = lattice.polytope
    n = poly.dim
    ehr = eh.ehrhart_polynomial(poly)
    extrapolates = all(
        ehr.value_at_integer(k) == eh.count_points(poly, k) for k in range(n + 3)
    )
    _check(out, "interpolation matches counts up to n+2", extrapolates)
    _check(out, "Ehrhart reciprocity up to n+2", eh.reciprocity_check(poly, n + 2))
    roots = ehr.integral_roots()
    _check(
        out,
        "integral roots form a consecutive block",
        set(roots) == {-j for j in range(1, len(roots) + 1)},
        f"roots={roots}",
    )
    try:
        k = eh.splitting_index(poly)
        _check(out, "splitting index: both computations agree", True, f"k={k}")
    except ArithmeticError as err:
        _check(out, "splitting index: both computations agree", False, str(err))
    return out


# ---------------------------------------------------------------------------


def classify_suite(lattice: FaceLattice, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    poly = lattice.polytope
    facets = [(lattice.face_by_vertices(on), f) for on, f in zip(poly.incidence, poly.facets)]
    for kind in cl.KINDS:
        # one classification per viewpoint, read by every check
        views = cl.sample_viewpoints(poly, kind, VIEWPOINTS, seed)
        cs = [cl.classify(lattice, kind, x) for x in views]
        checks = [partition_checks(c) for c in cs]
        rays = [cl.definitional_check(c) for c in cs]
        _check(out, f"{kind}: partition structure", all(p for p, _ in checks))
        _check(out, f"{kind}: ball/sphere homology of nerves", all(h for _, h in checks))
        _check(out, f"{kind}: ray definition consistent", not any(rays))
        if kind == "visibility":
            vis = all(
                (fid in c.filter_side) == (f.value(c.point) >= 0) for c in cs for fid, f in facets
            )
    _check(out, "facet visibility equals the sign test", vis)
    return out


# ---------------------------------------------------------------------------


def cohomology_suite(lattice: FaceLattice) -> list[CheckResult]:
    out: list[CheckResult] = []
    poly = lattice.polytope
    n = poly.dim
    ehr = eh.ehrhart_polynomial(poly)

    # proved for every x and k, not only on a grid, by one certificate per face
    _check(
        out,
        "twist membership formula equals LP oracle on the grid",
        sh.membership_certificate(lattice),
    )

    closed_form = True
    contributors_ok = True
    for k in TWISTS:
        expect_rank = abs(ehr.value_at_integer(k))
        expect_deg = 0 if k >= 0 else n
        expected_contrib = sh.expected_contributors(lattice, k)
        for ring in ("Z", "Q", "Z/2", "Z/3"):
            g = sh.global_cohomology(lattice, k, ring)
            concentrated = all(
                g.free_rank(d) == 0 for d in range(n + 1) if d != expect_deg
            )
            closed_form = (
                closed_form
                and g.shell_certified
                and not g.has_torsion()
                and concentrated
                and g.free_rank(expect_deg) == expect_rank
            )
            if ring == "Z":
                contributors_ok = contributors_ok and g.contributors == expected_contrib
    _check(out, "global cohomology matches |E(k)| in one degree, torsion-free", closed_form)
    _check(out, "contributors are exactly the (interior) dilate points", contributors_ok)

    # Both sides of the cross-check depend on x only through the facet-sign
    # signature at twist k: the twist face set by construction, and the
    # classification because k = 1 sees facet i visible iff v_i < 0, k = 0
    # calls it lower for -x iff <x, n_i> < 0, and k = -1 calls it a back facet
    # seen from -x iff v_i < 0. The first box point of each realized class
    # decides it; the exclusions (x in P, 0, int(-P)) depend on it alone too.
    cross_ok = True
    classes = {k: sh.class_points(lattice, k) for k in (1, 0, -1)}
    for k, reps in classes.items():
        for _, x in reps:
            if k == 1 and poly.contains(x):
                continue
            if k == 0 and all(c == 0 for c in x):
                continue
            if k == -1 and poly.contains(vec_neg(x), strict=True):
                continue
            if not sh.classification_crosscheck(lattice, k, x):
                cross_ok = False
    _check(out, "twist face sets match the classifications for k in {1,0,-1}", cross_ok)

    # A k = 1 twist face set depends on x only through its signature, so one
    # point per realized class, compared with the face set of the class the
    # scan filed it under, decides both identities for the whole box. The
    # members are read unchecked (twist_face_set raises on a set that is not
    # upward closed), so a broken set is reported as a FAIL.
    dedup_ok = True
    monotone_ok = True
    for sig, x in classes[1]:
        members = sh.twist_members(lattice, 1, x)
        dedup_ok = dedup_ok and members == sh._class_face_set(lattice, sig)
        monotone_ok = monotone_ok and union_over(lattice.above_masks, members) == members
    _check(out, "equal facet-sign vectors give equal twist face sets", dedup_ok)
    _check(out, "twist face sets are upward closed", monotone_ok)
    return out


# ---------------------------------------------------------------------------


def run_suite(lattice: FaceLattice, suite: str, seed: int = 0) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    # the Ehrhart suite counts up to (n+2)P; the cohomology suite up to nP, and
    # it lists the scan box of each twist, which holds the twist's dilate box
    poly = lattice.polytope
    ehrhart = suite in ("all", "ehrhart")
    cohomology = suite in ("all", "cohomology")
    if ehrhart or cohomology:
        eh.check_plan(
            eh.dilate_box(poly, poly.dim + 2 if ehrhart else poly.dim),
            listed=[("scan", sh.scan_box(poly, k)) for k in TWISTS] if cohomology else (),
            table=(poly, poly.dim + 2) if ehrhart else None,
        )
    out: list[CheckResult] = []
    if suite in ("all", "combinatorics"):
        out.extend(combinatorics_suite(lattice))
    if suite in ("all", "ehrhart"):
        out.extend(ehrhart_suite(lattice))
    if suite in ("all", "classify"):
        out.extend(classify_suite(lattice, seed=seed))
    if suite in ("all", "cohomology"):
        out.extend(cohomology_suite(lattice))
    return out
