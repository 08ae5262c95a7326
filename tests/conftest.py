from dataclasses import dataclass

import pytest

from polytoric import build_polytope, face_lattice
from polytoric import classify as cl
from polytoric import homology as hm
from polytoric import sheaf as sh
from polytoric.linalg import vec_neg
from polytoric.polytope import iter_bits

CORPUS_VERTICES = {
    "SEG": [[0], [1]],
    "TRI": [[0, 0], [1, 0], [0, 1]],
    "SQ": [[0, 0], [1, 0], [0, 1], [1, 1]],
    "SQ2": [[0, 0], [2, 0], [0, 2], [2, 2]],
    "CUBE": [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
    "TRI2": [[0, 0], [2, 0], [0, 2]],
}


@pytest.fixture(scope="session")
def corpus():
    return {name: build_polytope(v) for name, v in CORPUS_VERTICES.items()}


@pytest.fixture(scope="session")
def lattices(corpus):
    return {name: face_lattice(poly) for name, poly in corpus.items()}


@pytest.fixture(scope="session")
def seg(lattices):
    return lattices["SEG"]


@pytest.fixture(scope="session")
def tri(lattices):
    return lattices["TRI"]


@pytest.fixture(scope="session")
def sq(lattices):
    return lattices["SQ"]


@pytest.fixture(scope="session")
def cube(lattices):
    return lattices["CUBE"]


def face_id(lattice, *coords):
    """Face id from its vertex coordinate tuples."""
    verts = lattice.polytope.vertices
    fid = lattice.face_by_vertices(sum(1 << verts.index(tuple(c)) for c in set(coords)))
    assert fid is not None, f"no face with vertices {coords}"
    return fid


def face_ids(mask):
    """Face ids of a face-id bitmask, such as ``sheaf._class_face_set``
    returns: bit f is face f."""
    return frozenset(f for f in range(mask.bit_length()) if mask >> f & 1)


def face_mask(ids):
    """Face-id bitmask of a set of face ids, the cell bitmask that
    ``homology.restrict_cochain_complex`` takes for a face complex."""
    return sum(1 << f for f in ids)


def coreduce_masks(complex_, masks):
    """``homology.coreduce`` on a batch of cell bitmasks (bit i for cell i of
    the ``basis_labels``, degree by degree): each mask's remainder, as a cell
    bitmask. The batch is transposed by hand into one int per cell with bit
    s for set s, and back."""
    cells = sum(map(len, complex_.basis_labels))
    live = [sum((m >> i & 1) << s for s, m in enumerate(masks)) for i in range(cells)]
    out = hm.coreduce(complex_, live)
    assert len(out) == cells
    return [sum((out[i] >> s & 1) << i for i in range(cells)) for s in range(len(masks))]


def dilate_box(poly, k, margin):
    """Bounding box of kP inflated by margin, for tests that walk a box
    other than ``sheaf.scan_box``."""
    return tuple(
        (min(k * lo, k * hi) - margin, max(k * lo, k * hi) + margin)
        for lo, hi in poly.bounding_box()
    )


@dataclass(frozen=True)
class GradedPiece:
    base: sh.TwistFaceSet
    complex: hm.IntegerChainComplex


def graded_piece(lattice, k, x):
    """The full-restriction oracle for the graded piece at x: the face
    cochain complex restricted to the twist face set, built on every call
    and not coreduced. ``sheaf`` reads the class's coreduced complex."""
    base = sh.twist_face_set(lattice, k, x)
    ambient = hm.face_cochain_complex(lattice)
    return GradedPiece(base, hm.restrict_cochain_complex(ambient, base.mask))


def negate_polytope(poly):
    """The reflection -P through the origin."""
    return build_polytope([vec_neg(v) for v in poly.vertices])


def negated_lattice(lattice):
    """The face lattice of -P and the face map G -> -G into it, read off the
    vertices: face f of P goes to face ``mapping[f]`` of -P."""
    neg = face_lattice(negate_polytope(lattice.polytope))
    index = {v: i for i, v in enumerate(neg.polytope.vertices)}
    perm = [index[vec_neg(v)] for v in lattice.polytope.vertices]
    mapping = [
        neg.face_by_vertices(sum(1 << perm[i] for i in iter_bits(vertices)))
        for vertices in lattice.vertex_masks
    ]
    assert None not in mapping, "face negation did not land on a face"
    return neg, mapping


def minus_p_crosscheck(lattice, x, negated=None):
    """The k = -1 cross-check through -P, the oracle for
    ``sheaf.classification_crosscheck(lattice, -1, x)``: a face is a proper
    member of the twist face set exactly when its negative is a front face
    of -P seen from x. ``negated`` is ``negated_lattice(lattice)``, built
    here if not given."""
    neg, mapping = negated or negated_lattice(lattice)
    if neg.polytope.contains(x, strict=True):
        raise ValueError("crosscheck for k=-1 needs x outside the interior of -P")
    members = sh.twist_members(lattice, -1, x) & lattice.proper_mask
    front = cl.classify_front_back(neg, x).filter_side.mask
    return sum(1 << mapping[f] for f in iter_bits(members)) == front


# Nerve oracles: the ball and sphere answers from simplicial complexes,
# independent of the face cochain complex that ``verify`` decides them on.


def nerve_reduced_cohomology(nerve, ring="Z"):
    return hm.cohomology(hm.simplicial_chain_complex(nerve, reduced=True), ring)


def is_reduced_acyclic(nerve):
    """All reduced homology trivial over Z (free ranks and torsion)."""
    return nerve_reduced_cohomology(nerve, "Z").is_trivial()


def has_sphere_homology(nerve, sphere_dim):
    """Reduced homology of S^d over Z: one free generator in degree d."""
    res = nerve_reduced_cohomology(nerve, "Z")
    if res.has_torsion():
        return False
    expected = {sphere_dim: 1}
    return all(
        res.free_rank(d) == expected.get(d, 0) for d in range(-1, nerve.top_dim() + 1)
    )
