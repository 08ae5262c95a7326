"""Subsets of the boundary complex of a polytope.

The boundary complex consists of all proper non-empty faces. Subsets are
carried around as id sets; order filters, combinatorial closures, stars,
links, antistars and nerves are all computed purely combinatorially on the
face lattice. Star-type operators come in two modes: ``definitional``
(straight from the definitions) and ``combinatorial`` (via joins), which must
agree on face lattices of polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import FaceLattice


@dataclass(frozen=True)
class FaceSubset:
    """A set of proper non-empty faces of a fixed lattice."""

    lattice: FaceLattice
    members: frozenset[int]

    def __post_init__(self):
        bad = self.members - self.lattice.proper_ids()
        if bad:
            raise ValueError(f"not proper faces: {sorted(bad)}")

    def __contains__(self, fid: int) -> bool:
        return fid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def intersection(self, other: "FaceSubset") -> "FaceSubset":
        return FaceSubset(self.lattice, self.members & other.members)

    def complement(self) -> "FaceSubset":
        return FaceSubset(self.lattice, self.lattice.proper_ids() - self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.lattice.face_label(i) for i in sorted(self.members))


def boundary_complex(lattice: FaceLattice) -> FaceSubset:
    """All proper non-empty faces."""
    return FaceSubset(lattice, lattice.proper_ids())


def closure(subset: FaceSubset) -> FaceSubset:
    """Members together with all their non-empty faces."""
    lat = subset.lattice
    out = set()
    for fid in subset.members:
        out |= lat.below(fid)
    return FaceSubset(lat, frozenset(out))


def is_order_filter(subset: FaceSubset) -> bool:
    """Upward closed inside the boundary complex."""
    lat = subset.lattice
    proper = lat.proper_ids()
    for fid in subset.members:
        if not (lat.above(fid) & proper) <= subset.members:
            return False
    return True


def is_subcomplex(subset: FaceSubset) -> bool:
    return closure(subset).members == subset.members


def _check_proper(lattice: FaceLattice, fid: int) -> None:
    lattice.face(fid)
    if fid == lattice.top_id:
        raise ValueError("operation is defined for proper faces only")


def star(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Open star: all proper faces containing the given one."""
    _check_proper(lattice, fid)
    proper = lattice.proper_ids()
    if mode == "definitional":
        members = lattice.above(fid) & proper
    elif mode == "combinatorial":
        members = frozenset(
            g for g in proper if lattice.join(g, fid) != lattice.top_id and lattice.leq(fid, g)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return FaceSubset(lattice, members)


def closed_star(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Combinatorial closure of the open star; via joins, {F : F v A != P}."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return closure(star(lattice, fid))
    if mode == "combinatorial":
        proper = lattice.proper_ids()
        return FaceSubset(
            lattice, frozenset(g for g in proper if lattice.join(g, fid) != lattice.top_id)
        )
    raise ValueError(f"unknown mode {mode!r}")


def open_antistar(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Complement of the closed star; via joins, {F : F v A = P}."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return closed_star(lattice, fid).complement()
    if mode == "combinatorial":
        proper = lattice.proper_ids()
        return FaceSubset(
            lattice, frozenset(g for g in proper if lattice.join(g, fid) == lattice.top_id)
        )
    raise ValueError(f"unknown mode {mode!r}")


def closed_antistar(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Complement of the open star; equals the closure of the open antistar."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return star(lattice, fid).complement()
    if mode == "combinatorial":
        return closure(open_antistar(lattice, fid, "combinatorial"))
    raise ValueError(f"unknown mode {mode!r}")


def link(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Closed star minus open star: {F : F v A != P and A is not a face of F}."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return closed_star(lattice, fid).intersection(closed_antistar(lattice, fid))
    if mode == "combinatorial":
        proper = lattice.proper_ids()
        top = lattice.top_id
        return FaceSubset(
            lattice,
            frozenset(
                g for g in proper if lattice.join(g, fid) != top and not lattice.leq(fid, g)
            ),
        )
    raise ValueError(f"unknown mode {mode!r}")


def closed_star_within(subset: FaceSubset, fid: int) -> FaceSubset:
    """Closed star of a face computed inside an arbitrary sub-collection.

    Members F such that some G in the collection has F <= G and fid <= G.
    """
    lat = subset.lattice
    over = [g for g in subset.members if lat.leq(fid, g)]
    members = frozenset(
        f for f in subset.members if any(lat.leq(f, g) for g in over)
    )
    return FaceSubset(lat, members)


# ---------------------------------------------------------------------------
# nerves


@dataclass(frozen=True)
class NerveComplex:
    """Abstract simplicial complex of strictly increasing face chains.

    Simplices are tuples of face ids in increasing id order (face ids are a
    linear extension of the face order, so chains are automatically sorted).
    """

    vertices: tuple[int, ...]
    simplices: tuple[tuple[int, ...], ...]

    def simplices_of_dim(self, k: int) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s in self.simplices if len(s) == k + 1)

    def top_dim(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.simplices_of_dim(k)) for k in range(self.top_dim() + 1))


def nerve(subset: FaceSubset) -> NerveComplex:
    """All chains of the subset under face inclusion."""
    if not subset.members:
        raise ValueError("nerve of an empty subset")
    lat = subset.lattice
    ids = sorted(subset.members)
    simplices: list[tuple[int, ...]] = []

    def extend(chain: list[int]) -> None:
        simplices.append(tuple(chain))
        last = chain[-1]
        for j in ids:
            if j > last and lat.leq(last, j):
                chain.append(j)
                extend(chain)
                chain.pop()

    for v in ids:
        extend([v])
    simplices.sort(key=lambda s: (len(s), s))
    return NerveComplex(tuple(ids), tuple(simplices))
