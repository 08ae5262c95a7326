from itertools import product

import pytest

from polytoric import boundary as bd
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric.linalg import IntMatrix, rank_over_field
from conftest import (
    face_id,
    graded_piece,
    has_sphere_homology,
    is_reduced_acyclic,
    nerve_reduced_cohomology,
)


def test_face_cochain_complex_shapes(seg, tri, sq):
    d = hm.face_cochain_complex(seg)
    assert [len(layer) for layer in d.basis_labels] == [2, 1]
    assert d.maps[0].entries == ((-1, 1),)  # -1 at the lower vertex id, +1 at the other
    assert [len(layer) for layer in hm.face_cochain_complex(sq).basis_labels] == [4, 4, 1]
    assert [len(layer) for layer in hm.face_cochain_complex(tri).basis_labels] == [3, 3, 1]


def test_dd_zero_on_all_face_complexes(lattices):
    for lat in lattices.values():
        c = hm.face_cochain_complex(lat)
        for i in range(len(c.maps) - 1):
            assert c.maps[i + 1].mul(c.maps[i]).is_zero()


def test_face_complex_has_point_cohomology(lattices):
    for lat in lattices.values():
        n = lat.polytope.dim
        c = hm.face_cochain_complex(lat)
        for ring in ("Z", "Q", "Z/2", "Z/3"):
            res = hm.cohomology(c, ring)
            assert res.free_rank(0) == 1
            assert not res.has_torsion()
            assert all(res.free_rank(d) == 0 for d in range(1, n + 1))


def test_dd_violation_is_rejected():
    d0 = IntMatrix.from_rows([[1, 1]])
    d1 = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError, match="d∘d"):
        hm.IntegerChainComplex(0, ((0, 1), (2,), (3,)), (d0, d1))


def test_nerve_homology_examples(sq, seg):
    eight_cycle = bd.nerve(bd.boundary_complex(sq))
    res = nerve_reduced_cohomology(eight_cycle, "Z")
    assert res.free_rank(0) == 0 and res.free_rank(1) == 1
    assert not res.has_torsion()

    two_points = bd.nerve(bd.boundary_complex(seg))
    res = nerve_reduced_cohomology(two_points, "Z")
    assert res.free_rank(0) == 1

    single = bd.nerve(bd.FaceSubset(sq, 1 << face_id(sq, (0, 0))))
    assert is_reduced_acyclic(single)


def test_boundary_nerve_is_a_sphere(lattices):
    for lat in lattices.values():
        n = lat.polytope.dim
        assert has_sphere_homology(bd.nerve(bd.boundary_complex(lat)), n - 1)


def test_unreduced_vs_reduced(sq):
    n = bd.nerve(bd.boundary_complex(sq))
    unreduced = hm.cohomology(hm.simplicial_chain_complex(n), "Z")
    assert unreduced.free_rank(0) == 1  # one component
    assert unreduced.free_rank(1) == 1


def test_zero_complex():
    c = hm.IntegerChainComplex(0, ((), ()), (IntMatrix.from_rows([], ncols=0),))
    res = hm.cohomology(c, "Z")
    assert res.is_trivial()


def _projective_plane_nerve():
    # minimal 6-vertex triangulation of the real projective plane: every one
    # of the 15 edges lies in exactly two of the ten triangles
    triangles = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    simplices = {(v,) for v in range(1, 7)}
    for t in triangles:
        simplices.add(t)
        simplices.update({t[:i] + t[i + 1 :] for i in range(3)})
    return bd.NerveComplex(
        tuple(range(1, 7)), tuple(sorted(simplices, key=lambda s: (len(s), s)))
    )


def test_torsion_is_reported():
    # cohomology of the projective plane: Z/2 shows up in top degree over Z,
    # an extra rank appears over Z/2, and Q / Z/3 see nothing
    n = _projective_plane_nerve()
    assert n.f_vector() == (6, 15, 10)
    over_z = nerve_reduced_cohomology(n, "Z")
    assert over_z.free == (0, 0, 0, 0)  # degrees -1 .. 2
    assert over_z.torsion_at(2) == (2,)
    over_2 = nerve_reduced_cohomology(n, "Z/2")
    assert over_2.free_rank(1) == 1 and over_2.free_rank(2) == 1
    assert nerve_reduced_cohomology(n, "Q").is_trivial()
    assert nerve_reduced_cohomology(n, "Z/3").is_trivial()
    assert not is_reduced_acyclic(n)
    assert not has_sphere_homology(n, 2)


def test_field_ranks_match_integer_ranks_without_torsion(lattices):
    for name in ("TRI", "SQ", "CUBE"):
        lat = lattices[name]
        c = hm.face_cochain_complex(lat)
        z = hm.cohomology(c, "Z")
        assert not z.has_torsion()
        for ring in ("Q", "Z/2", "Z/3"):
            f = hm.cohomology(c, ring)
            assert f.free == z.free


def test_restriction_keeps_ambient_incidences(sq):
    c = hm.face_cochain_complex(sq)
    v00 = face_id(sq, (0, 0))
    keep = sq.above_masks[v00]  # upward-closed, so the restriction is a complex
    sub = hm.restrict_cochain_complex(c, keep)
    assert [len(layer) for layer in sub.basis_labels] == [1, 2, 1]
    bottom = face_id(sq, (0, 0), (1, 0))
    col = sub.basis_labels[0].index(v00)
    row = sub.basis_labels[1].index(bottom)
    ambient_col = c.basis_labels[0].index(v00)
    ambient_row = c.basis_labels[1].index(bottom)
    assert sub.maps[0].entries[row][col] == c.maps[0].entries[ambient_row][ambient_col] != 0


# ---------------------------------------------------------------------------
# the field route: an oracle independent of the Smith form

FIELDS = ("Q", "Z/2", "Z/3", "Z/5")


def _field_free_ranks(complex_, ring):
    """Free ranks n - r_out - r_in with ranks from the field elimination."""
    ranks = [0] + [rank_over_field(m, ring) for m in complex_.maps] + [0]
    return tuple(
        len(layer) - ranks[i] - ranks[i + 1] for i, layer in enumerate(complex_.basis_labels)
    )


def _oracle_complexes(lattices):
    """Face complexes, twist class complexes of SQ and CUBE for k in -2..2,
    boundary nerves (reduced and not) and the projective plane."""
    out = {}
    for name, lat in lattices.items():
        out[f"{name} faces"] = hm.face_cochain_complex(lat)
        nerve = bd.nerve(bd.boundary_complex(lat))
        out[f"{name} nerve"] = hm.simplicial_chain_complex(nerve)
        out[f"{name} reduced nerve"] = hm.simplicial_chain_complex(nerve, reduced=True)
    for name in ("SQ", "CUBE"):
        lat = lattices[name]
        for k in range(-2, 3):
            for x in product(*(range(lo, hi + 1) for lo, hi in sh.scan_box(lat.polytope, k))):
                piece = graded_piece(lat, k, x)
                out.setdefault(f"{name} class {sorted(piece.base.members)}", piece.complex)
    rp2 = _projective_plane_nerve()
    out["RP2"] = hm.simplicial_chain_complex(rp2, reduced=True)
    return out


def test_smith_readout_matches_field_elimination(lattices):
    complexes = _oracle_complexes(lattices)
    assert sum(" class " in name for name in complexes) >= 20
    nontrivial = set()
    for name, c in complexes.items():
        for ring in FIELDS:
            res = hm.cohomology(c, ring)
            assert res.free == _field_free_ranks(c, ring), (name, ring)
            assert not res.has_torsion(), (name, ring)
            if any(res.free):
                nontrivial.add(ring)
    # Z/2 sees the projective plane's torsion, the other fields do not
    assert hm.cohomology(complexes["RP2"], "Z/2").free != hm.cohomology(complexes["RP2"], "Q").free
    assert nontrivial == set(FIELDS)


def test_every_ring_reads_one_smith_form_per_map(cube, monkeypatch):
    calls = []
    original = hm.smith_normal_form
    monkeypatch.setattr(hm, "smith_normal_form", lambda m: calls.append(m) or original(m))
    c = hm.restrict_cochain_complex(hm.face_cochain_complex(cube), cube.above_masks[0])
    for ring in ("Z",) + FIELDS:
        hm.cohomology(c, ring)
    assert len(calls) == len(c.maps)
