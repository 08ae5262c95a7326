"""Chain complexes and their (co)homology over Z, Q and Z/p.

The face cochain complex of a polytope has one basis element per face and
+-1 incidence numbers that the diamond rule reads off the face lattice,
with no coordinates; the simplicial complexes of nerves are the tests'
oracle for its ball and sphere answers. Integer matrices are interpreted
over the requested ring only when cohomology is computed, and one kernel
answers every ring: the Smith normal form of each coboundary, computed once
per complex by a sparse Euclid that eliminates unit pivots first
(``linalg``). Ranks over Q and Z/p follow from its elementary divisors by
universal coefficients, and over Z the torsion is the incoming coboundary's
divisors above 1. The field elimination ``linalg.rank_over_field`` is not
used here; the tests keep it as an independent route to the field answers.

Every coboundary is a sparse ``IntMatrix`` (rows of ``(col, value)`` pairs)
from the start: the face complex builds each row from the facets of a face
(``FaceLattice.covers``), a restriction keeps the rows of kept faces and
renumbers their kept columns, and a nerve's row holds its k+1 alternating
signs. Each complex checks d∘d = 0 on construction with the sparse product.

A kept set is an int cell bitmask (bit i is cell i of the ``basis_labels``,
read degree by degree). ``coreduce`` shrinks many sets at once before they
are restricted: bit-sliced, one int per cell says which sets hold it, and
sweeps over the +-1 entries remove free pairs from every set at once
(Kaczynski-Mischaikow-Mrozek, *Computational Homology*, 2004; Mrozek-Batko,
*Discrete Comput. Geom.* 41, 2009). The restriction to what each set keeps
has the set's cohomology over every ring.

``face_set_complexes`` is the one route from face sets to complexes: the
sheaf's facet-sign classes and verify's ball and sphere sets both go through
it, and each lattice keeps one restricted complex per distinct remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .boundary import NerveComplex
from .linalg import IntMatrix, SmithForm, normalize_ring, smith_normal_form
from .parallel import parallel_map
from .polytope import FaceLattice, transpose_bits


@dataclass(frozen=True)
class IntegerChainComplex:
    """Graded integer matrices d_j : C^j -> C^(j+1) with d d = 0.

    ``basis_labels[i]`` lists the generators in degree ``start_degree + i``;
    ``maps[i]`` has one row per generator of the next degree and one column
    per generator of degree ``start_degree + i``.
    """

    start_degree: int
    basis_labels: tuple[tuple, ...]
    maps: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.maps) != max(len(self.basis_labels) - 1, 0):
            raise ValueError("one map per consecutive degree pair is required")
        for i, m in enumerate(self.maps):
            if m.ncols != len(self.basis_labels[i]) or m.nrows != len(self.basis_labels[i + 1]):
                raise ValueError(f"map {i} has shape {m.nrows}x{m.ncols}, bases disagree")
        for i in range(len(self.maps) - 1):
            if not self.maps[i + 1].mul(self.maps[i]).is_zero():
                raise ValueError("orientation bug: d∘d != 0")

    @cached_property
    def _unit_pairs(self) -> list[tuple[int, int, list[int], list[int]]]:
        """The sweep of ``coreduce``: per +-1 entry, the face a, the coface b
        and the cofaces of a and faces of b (cells numbered degree by degree
        in ``basis_labels`` order), highest coface first."""
        cells = sum(map(len, self.basis_labels))
        up, down = [[] for _ in range(cells)], [[] for _ in range(cells)]
        units = []
        src = 0
        for layer, m in zip(self.basis_labels, self.maps):
            dst = src + len(layer)
            for r, row in enumerate(m.rows, dst):
                for c, v in row:
                    up[src + c].append(r)
                    down[r].append(src + c)
                    if v in (1, -1):
                        units.append((r, src + c))
            src = dst
        return [(a, b, up[a], down[b]) for b, a in reversed(units)]

    @cached_property
    def smith_forms(self) -> tuple[SmithForm, ...]:
        """Smith normal form of each map, computed once per complex; every
        coefficient ring is read from it."""
        return tuple(smith_normal_form(m) for m in self.maps)


@dataclass(frozen=True)
class CohomologyResult:
    """Per-degree free ranks and torsion divisors (empty over a field)."""

    ring: str
    start_degree: int
    free: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def free_rank(self, degree: int) -> int:
        i = degree - self.start_degree
        if 0 <= i < len(self.free):
            return self.free[i]
        return 0

    def torsion_at(self, degree: int) -> tuple[int, ...]:
        i = degree - self.start_degree
        if 0 <= i < len(self.torsion):
            return self.torsion[i]
        return ()

    def has_torsion(self) -> bool:
        return any(self.torsion)

    def is_trivial(self) -> bool:
        return not any(self.free) and not self.has_torsion()


def cohomology(complex_: IntegerChainComplex, ring: str = "Z") -> CohomologyResult:
    """Cohomology of the complex over Z, Q or Z/p, read off the Smith forms.

    The free rank in degree j is n_j - rank(d_j) - rank(d_{j-1}). By
    universal coefficients, the rank of a map over Q is its number of
    elementary divisors, and over Z/p the number of divisors that p does not
    divide. Over Z the torsion is the incoming map's divisors above 1.
    """
    kind = normalize_ring(ring)
    p = kind[1] if kind[0] == "Zp" else None
    forms = complex_.smith_forms
    # ranks[i] is the rank of the map into degree start + i (0 at both ends)
    ranks = [0] + [sum(1 for d in s.elementary_divisors if p is None or d % p) for s in forms]
    ranks.append(0)
    free = tuple(
        len(layer) - ranks[i] - ranks[i + 1] for i, layer in enumerate(complex_.basis_labels)
    )
    torsion = [()] * len(free)
    if kind[0] == "Z":
        torsion[1:] = [s.torsion() for s in forms]
    return CohomologyResult(ring, complex_.start_degree, free, tuple(torsion))


# ---------------------------------------------------------------------------
# the face cochain complex


def face_cochain_complex(lattice: FaceLattice) -> IntegerChainComplex:
    """Cochain complex with degree-j basis the j-faces (including the top face).

    Incidence numbers come from the face lattice alone. An edge gets -1 at
    its lower vertex id and +1 at the other. Then, for each face G of
    dimension >= 2 in increasing dimension, G's lowest-id facet gets +1 and a
    walk over G's ridge graph sets [G:F'] = -[G:F][F:E][F':E] for facets F,
    F' of G that meet in a ridge E. Every interval of length 2 in a
    polytope's face lattice is a diamond, so this is the rule
    [G:F][F:E] + [G:F'][F':E] = 0 that makes d∘d = 0, and any two systems of
    signs that keep it differ by a +-1 change of basis per face (A. Björner,
    "Posets, regular CW complexes and Bruhat order", *Europ. J. Combin.* 5,
    1984), which changes no Smith form. A sign conflict would fail the d∘d
    check of ``IntegerChainComplex``. The coefficient ring enters only when
    cohomology is computed.
    """
    cached = lattice._cache.get("face_cochain")
    if cached is not None:
        return cached
    n = lattice.polytope.dim
    labels = tuple(lattice.faces_of_dim(d) for d in range(n + 1))
    signs: dict[int, dict[int, int]] = {}  # signs[G][F] = [G:F] for each facet F of G
    for d in range(1, n + 1):
        for gid in labels[d]:
            facets = lattice.covers[gid]
            if d == 1:
                signs[gid] = {facets[0]: -1, facets[1]: 1}
                continue
            through: dict[int, list[int]] = {}  # ridge of G -> the two facets of G on it
            for f in facets:
                for e in signs[f]:
                    through.setdefault(e, []).append(f)
            inc = {facets[0]: 1}
            stack = [facets[0]]
            while stack:
                f = stack.pop()
                for e, s in signs[f].items():
                    for other in through[e]:
                        if other not in inc:
                            inc[other] = -inc[f] * s * signs[other][e]
                            stack.append(other)
            if len(inc) != len(facets):
                raise RuntimeError(f"the ridge graph of face {gid} is not connected")
            signs[gid] = inc
    maps = []
    for d in range(n):
        col = {fid: j for j, fid in enumerate(labels[d])}
        # covers are in ascending id order, so each row comes out sorted
        rows = tuple(
            tuple((col[f], signs[gid][f]) for f in lattice.covers[gid]) for gid in labels[d + 1]
        )
        maps.append(IntMatrix(len(rows), len(col), rows))
    complex_ = IntegerChainComplex(0, labels, tuple(maps))
    lattice._cache["face_cochain"] = complex_
    return complex_


def restrict_cochain_complex(complex_: IntegerChainComplex, keep: int) -> IntegerChainComplex:
    """Subcomplex on the cells of the bitmask ``keep`` (numbered as in ``coreduce``).

    Kept rows are copied with their kept columns renumbered; the order of the
    kept generators is the ambient order, so every row stays sorted.
    """
    index = []  # per degree: ambient position -> restricted position of a kept generator
    for layer in complex_.basis_labels:
        kept = [j for j in range(len(layer)) if keep >> j & 1]
        keep >>= len(layer)
        index.append({j: i for i, j in enumerate(kept)})
    labels = tuple(
        tuple(layer[j] for j in pos) for layer, pos in zip(complex_.basis_labels, index)
    )
    maps = []
    for i, m in enumerate(complex_.maps):
        src = index[i]
        rows = tuple(tuple((src[c], v) for c, v in m.rows[r] if c in src) for r in index[i + 1])
        maps.append(IntMatrix(len(rows), len(src), rows))
    return IntegerChainComplex(complex_.start_degree, labels, tuple(maps))


def coreduce(complex_: IntegerChainComplex, live: list[int]) -> list[int]:
    """Cells left of many cell sets after free-pair coreductions, bit-sliced.

    ``live[i]`` is the bitmask of the sets that hold cell i, cells numbered
    degree by degree in ``basis_labels`` order (face id i in the face
    cochain complex), and so is the result for what is left. Each set must
    keep d∘d = 0, as a convex face set does (one holding every face between
    two of its faces). A sweep walks the +-1 entries (face a, coface b),
    highest coface first (measured to need fewer sweeps than lowest first on
    the perfbench sign classes), and with a few big-int ops removes a and b
    from every set that holds both and in which b is a's only live coface or
    a is b's only live face. In each such set that is Gaussian elimination
    on a unit pivot whose row or column has no other live entry, so with no
    correction term: the restriction to the remainder has the set's
    cohomology over Z and so over every ring. Bit s of the result depends on
    bit s of the input alone, so a set's remainder does not depend on the
    batch it is in. Sweeps repeat until one removes nothing; every sweep
    before that removes a cell from some set, so they stop. The live faces
    stay convex: by the diamond property a face with one live coface has no
    live face two levels above.
    """
    live = list(live)
    while True:
        removed = 0
        for a, b, ups, downs in complex_._unit_pairs:
            both = live[a] & live[b]
            if not both:
                continue
            up = down = 0  # the sets where a has another live coface, b another face
            for c in ups:
                if c != b:
                    up |= live[c]
            for e in downs:
                if e != a:
                    down |= live[e]
            gone = both & ~(up & down)
            live[a] ^= gone
            live[b] ^= gone
            removed |= gone
        if not removed:
            return live


def face_set_complexes(
    lattice: FaceLattice, live: list[int], count: int
) -> list[IntegerChainComplex]:
    """One complex per convex face set of a batch of ``count``, with the set's
    cohomology over every ring.

    ``live[f]`` is the bitmask of the sets that hold face f (cell f of the
    face cochain complex). The batch is coreduced at once (``coreduce``), and
    each set gets the restriction to its remainder. The lattice keeps one
    restriction per distinct remainder, so sets with one remainder share one
    complex and its Smith forms, whichever caller asked for them first.
    """
    ambient = face_cochain_complex(lattice)
    by_rest = lattice._cache.setdefault("remainders", {})
    rests = transpose_bits(coreduce(ambient, live), count)
    new = [r for r in dict.fromkeys(rests) if r not in by_rest]
    by_rest.update(zip(new, parallel_map(lambda r: restrict_cochain_complex(ambient, r), new)))
    return [by_rest[r] for r in rests]


# ---------------------------------------------------------------------------
# simplicial complexes of nerves


def simplicial_chain_complex(nerve: NerveComplex, reduced: bool = False) -> IntegerChainComplex:
    """Simplicial complex of a nerve with alternating-sign incidences.

    Degree j holds the j-simplices (sorted id tuples); the entry for a pair
    (tau, sigma) with sigma = tau minus its i-th vertex is (-1)^i. With
    ``reduced`` a degree -1 with the empty simplex is prepended, which turns
    the answer into reduced (co)homology.
    """
    top = nerve.top_dim()
    layers = [nerve.simplices_of_dim(k) for k in range(top + 1)]
    index = [{s: i for i, s in enumerate(layer)} for layer in layers]
    maps = []
    for k in range(top):
        col = index[k]
        rows = tuple(
            tuple(sorted((col[tau[:i] + tau[i + 1 :]], (-1) ** i) for i in range(len(tau))))
            for tau in layers[k + 1]
        )
        maps.append(IntMatrix(len(rows), len(col), rows))
    labels = tuple(layers)
    if reduced:
        aug = IntMatrix(len(layers[0]), 1, tuple(((0, 1),) for _ in layers[0]))
        return IntegerChainComplex(-1, (((),),) + labels, (aug,) + tuple(maps))
    return IntegerChainComplex(0, labels, tuple(maps))

