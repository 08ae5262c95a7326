"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they appear."""

from itertools import product

from polytoric import boundary as bd
from polytoric import classify as cl
from polytoric import ehrhart as eh
from polytoric import homology as hm
from polytoric import sheaf as sh
from conftest import has_sphere_homology, is_reduced_acyclic, negate_polytope
from test_boundary import join_formulas

RINGS = ("Z", "Q", "Z/2", "Z/3")


def _report(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_ehrhart_reciprocity(corpus):
    ok = True
    for name, poly in corpus.items():
        n = poly.dim
        ehr = eh.ehrhart_polynomial(poly)
        for j in range(1, n + 3):
            predicted = (-1) ** n * ehr.value_at_integer(-j)
            actual = eh.dilate_count(poly, -j, strict=True)
            if predicted != actual:
                ok = False
    _report("criterion 1: Ehrhart reciprocity, exact, k in [-(n+2), -1]", ok)


def test_criterion_2_splitting_index(corpus):
    expected = {"TRI": 2, "SEG": 1, "SQ": 1, "SQ2": 0, "CUBE": 1}
    ok = True
    detail = []
    for name, poly in corpus.items():
        try:
            k = eh.splitting_index(poly)  # raises if the dual computations differ
        except ArithmeticError:
            ok = False
            continue
        detail.append(f"{name}={k}")
        if name in expected and k != expected[name]:
            ok = False
    _report("criterion 2: splitting index, dual computations agree", ok, ", ".join(detail))


def test_criterion_3_cohomology_closed_form(lattices):
    ok = True
    for name, lat in lattices.items():
        poly = lat.polytope
        n = poly.dim
        ehr = eh.ehrhart_polynomial(poly)
        for k in range(-3, 4):
            expect_rank = abs(ehr.value_at_integer(k))
            expect_deg = 0 if k >= 0 else n
            expected_contrib = sh.expected_contributors(lat, k)
            for ring in RINGS:
                g = sh.global_cohomology(lat, k, ring)
                if g.has_torsion() or not g.shell_certified:
                    ok = False
                if g.free_rank(expect_deg) != expect_rank:
                    ok = False
                if any(g.free_rank(d) for d in range(n + 1) if d != expect_deg):
                    ok = False
                if ring == "Z" and g.contributors != expected_contrib:
                    ok = False
    _report(
        "criterion 3: H^* free of rank |E(k)|, concentrated, certified shell", ok
    )


def test_criterion_4_membership_formula_vs_oracle(lattices):
    ok = True
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        n = lat.polytope.dim
        for k in range(-2, 3):
            for x in product(range(-3, 5), repeat=n):
                members = sh.twist_members(lat, k, x)
                for f in lat.faces:
                    if bool(members >> f.id & 1) != sh.membership_oracle(lat, k, f.id, x):
                        ok = False
    _report("criterion 4: twist membership formula = LP oracle on the grids", ok)


def test_criterion_5_classification_crosschecks(lattices):
    ok = True
    for name in ("SEG", "TRI", "SQ", "CUBE"):
        lat = lattices[name]
        poly = lat.polytope
        neg = negate_polytope(poly)
        for k in (1, 0, -1):
            box = sh.scan_box(poly, k)
            for x in product(*(range(lo, hi + 1) for lo, hi in box)):
                if k == 1 and poly.contains(x):
                    continue
                if k == 0 and all(c == 0 for c in x):
                    continue
                if k == -1 and neg.contains(x, strict=True):
                    continue
                if not sh.classification_crosscheck(lat, k, x):
                    ok = False
    _report("criterion 5: twist face sets match Inv/Up/Front for k in {1,0,-1}", ok)


def test_criterion_6_combinatorial_formulas(lattices):
    ok = True
    for lat in lattices.values():
        for a in range(lat.top_id):
            for op, mask in join_formulas(lat, a).items():
                if op(lat, a).mask != mask:
                    ok = False
            if (
                bd.closed_antistar(lat, a).members
                != bd.closure(bd.open_antistar(lat, a)).members
            ):
                ok = False
            for b in bd.star(lat, a).members - {a}:
                lk_b = bd.link(lat, b)
                expected = frozenset(
                    f for f in lk_b.members if not lat.leq(b, lat.join(f, a))
                )
                if a not in lk_b.members or bd.closed_star_within(lk_b, a).members != expected:
                    ok = False
    _report("criterion 6: star/link/antistar formulas, closures, star-in-link", ok)


def test_criterion_7_nerve_homology(lattices):
    ok = True
    for name, lat in lattices.items():
        n = lat.polytope.dim
        if not has_sphere_homology(bd.nerve(bd.boundary_complex(lat)), n - 1):
            ok = False
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=8, seed=0):
                c = cl.classify(lat, kind, x)
                if not is_reduced_acyclic(bd.nerve(c.filter_side)):
                    ok = False
                if n >= 2 and not has_sphere_homology(bd.nerve(c.boundary), n - 2):
                    ok = False
    _report(
        "criterion 7: boundary nerve S^(n-1); Inv/Front/Up acyclic; edges S^(n-2)", ok
    )


def test_criterion_8_chain_complex_soundness(lattices):
    ok = True
    for name, lat in lattices.items():
        n = lat.polytope.dim
        dcx = hm.face_cochain_complex(lat)
        for i in range(len(dcx.maps) - 1):
            if not dcx.maps[i + 1].mul(dcx.maps[i]).is_zero():
                ok = False
        for ring in RINGS:
            res = hm.cohomology(dcx, ring)
            if res.free_rank(0) != 1 or res.has_torsion():
                ok = False
            if any(res.free_rank(d) for d in range(1, n + 1)):
                ok = False
        # nerve complexes produced by the classification tests satisfy dd = 0
        for kind in cl.KINDS:
            for x in cl.sample_viewpoints(lat.polytope, kind, count=2, seed=5):
                c = cl.classify(lat, kind, x)
                ncx = hm.simplicial_chain_complex(bd.nerve(c.filter_side), reduced=True)
                for i in range(len(ncx.maps) - 1):
                    if not ncx.maps[i + 1].mul(ncx.maps[i]).is_zero():
                        ok = False
    _report("criterion 8: dd = 0 everywhere; face complex cohomology is R at 0", ok)
