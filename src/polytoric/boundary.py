"""Subsets of the boundary complex of a polytope.

The boundary complex consists of all proper non-empty faces. A subset is one
int face-id bitmask (bit f for face f) of its lattice; order filters,
closures, stars, links and antistars are mask operations on the lattice's
``below_masks`` and ``above_masks``, and nerves are built on the face order.
Star-type operators come in two modes: ``definitional`` (straight from the
definitions, on masks) and ``combinatorial`` (face by face, via joins), which
must agree on face lattices of polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import FaceLattice, iter_bits, union_over


@dataclass(frozen=True)
class FaceSubset:
    """A set of proper non-empty faces of a fixed lattice, as a face-id bitmask."""

    lattice: FaceLattice
    mask: int

    def __post_init__(self):
        bad = self.mask & ~self.lattice.proper_mask  # negative for a negative mask
        if bad:
            ids = [f for f in range(abs(bad).bit_length()) if bad >> f & 1]
            raise ValueError(f"not proper faces: {ids}" + (" and beyond" if bad < 0 else ""))

    @property
    def members(self) -> frozenset[int]:
        return frozenset(iter_bits(self.mask))

    def __contains__(self, fid: int) -> bool:
        return self.mask >> fid & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def intersection(self, other: "FaceSubset") -> "FaceSubset":
        return FaceSubset(self.lattice, self.mask & other.mask)

    def complement(self) -> "FaceSubset":
        return FaceSubset(self.lattice, self.lattice.proper_mask & ~self.mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.lattice.face_label, iter_bits(self.mask)))


def boundary_complex(lattice: FaceLattice) -> FaceSubset:
    """All proper non-empty faces."""
    return FaceSubset(lattice, lattice.proper_mask)


def closure(subset: FaceSubset) -> FaceSubset:
    """Members together with all their non-empty faces."""
    return FaceSubset(subset.lattice, union_over(subset.lattice.below_masks, subset.mask))


def is_order_filter(subset: FaceSubset) -> bool:
    """Upward closed inside the boundary complex."""
    lat = subset.lattice
    return union_over(lat.above_masks, subset.mask) & lat.proper_mask == subset.mask


def is_subcomplex(subset: FaceSubset) -> bool:
    return closure(subset).mask == subset.mask


def _check_proper(lattice: FaceLattice, fid: int) -> None:
    lattice.check_id(fid)
    if fid == lattice.top_id:
        raise ValueError("operation is defined for proper faces only")


def _faces_where(lattice: FaceLattice, keep) -> FaceSubset:
    """The proper faces g with keep(g), tested face by face."""
    return FaceSubset(lattice, sum(1 << g for g in range(lattice.top_id) if keep(g)))


def star(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Open star: all proper faces containing the given one."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return FaceSubset(lattice, lattice.above_masks[fid] & lattice.proper_mask)
    if mode == "combinatorial":
        top = lattice.top_id
        return _faces_where(
            lattice, lambda g: lattice.join(g, fid) != top and lattice.leq(fid, g)
        )
    raise ValueError(f"unknown mode {mode!r}")


def closed_star(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Combinatorial closure of the open star; via joins, {F : F v A != P}."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return closure(star(lattice, fid))
    if mode == "combinatorial":
        return _faces_where(lattice, lambda g: lattice.join(g, fid) != lattice.top_id)
    raise ValueError(f"unknown mode {mode!r}")


def open_antistar(lattice: FaceLattice, fid: int, mode: str = "definitional") -> FaceSubset:
    """Complement of the closed star; via joins, {F : F v A = P}."""
    _check_proper(lattice, fid)
    if mode == "definitional":
        return closed_star(lattice, fid).complement()
    if mode == "combinatorial":
        return _faces_where(lattice, lambda g: lattice.join(g, fid) == lattice.top_id)
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
        top = lattice.top_id
        return _faces_where(
            lattice, lambda g: lattice.join(g, fid) != top and not lattice.leq(fid, g)
        )
    raise ValueError(f"unknown mode {mode!r}")


def closed_star_within(subset: FaceSubset, fid: int) -> FaceSubset:
    """Closed star of a face computed inside an arbitrary sub-collection.

    Members F such that some G in the collection has F <= G and fid <= G:
    the faces of the members over fid, cut back to the collection.
    """
    lat = subset.lattice
    lat.check_id(fid)
    over = subset.mask & lat.above_masks[fid]
    return FaceSubset(lat, union_over(lat.below_masks, over) & subset.mask)


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
    if not subset.mask:
        raise ValueError("nerve of an empty subset")
    lat = subset.lattice
    ids = list(iter_bits(subset.mask))
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
