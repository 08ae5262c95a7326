"""Subsets of the boundary complex of a polytope.

The boundary complex consists of all proper non-empty faces. A subset is one
int face-id bitmask (bit f for face f) of its lattice; order filters,
closures, stars, links and antistars are mask operations on the lattice's
``below_masks`` and ``above_masks``, and nerves are built on the face order.
``joins_with`` is the second route to the star-type operators: one join per
face, from which the join formulas of stars, links and antistars are read.
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


def star(lattice: FaceLattice, fid: int) -> FaceSubset:
    """Open star: all proper faces containing the given one."""
    _check_proper(lattice, fid)
    return FaceSubset(lattice, lattice.above_masks[fid] & lattice.proper_mask)


def closed_star(lattice: FaceLattice, fid: int) -> FaceSubset:
    """Combinatorial closure of the open star."""
    return closure(star(lattice, fid))


def open_antistar(lattice: FaceLattice, fid: int) -> FaceSubset:
    """Complement of the closed star."""
    return closed_star(lattice, fid).complement()


def closed_antistar(lattice: FaceLattice, fid: int) -> FaceSubset:
    """Complement of the open star."""
    return star(lattice, fid).complement()


def link(lattice: FaceLattice, fid: int) -> FaceSubset:
    """Closed star minus open star."""
    return closed_star(lattice, fid).intersection(closed_antistar(lattice, fid))


def joins_with(lattice: FaceLattice, fid: int) -> list[int]:
    """Per face H, the mask of the proper faces F with F v A = H, A the given
    face; one ``lattice.join`` per proper face.

    The star-type operators are then, with P the top face:
    star {F : F v A = F}, closed star {F : F v A != P}, open antistar
    {F : F v A = P}, closed antistar the closure of the open antistar, and
    link {F : F v A != P and F v A != F}.
    """
    _check_proper(lattice, fid)
    out = [0] * len(lattice)
    for g in range(lattice.top_id):
        out[lattice.join(g, fid)] |= 1 << g
    return out


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
