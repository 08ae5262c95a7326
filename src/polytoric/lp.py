"""Exact linear feasibility via Fourier-Motzkin elimination, polyhedral
cone membership tests built on top of it, and the extreme rays of dual cones
by exact double description (the one polyhedral kernel behind hull facets
and barrier-cone rays).

A constraint is a triple ``(a, b, rel)`` meaning ``<a, x> rel b`` where
``rel`` is one of ``">="``, ``">"``, ``"="``. Coefficients may be ints or
Fractions. Strict inequalities are carried through elimination as flags, so
no perturbation is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import _eliminate, dot, primitive_vector, scale_to_integers, vec_neg

RELATIONS = (">=", ">", "=")

# internal row: (coeffs: tuple[int], threshold: Fraction, strict: bool)
# meaning <coeffs, x> >= threshold, strictly if the flag is set.


class InfeasibleError(Exception):
    pass


def _normalize_row(coeffs, threshold, strict):
    """Scale to a primitive integer direction; returns None for satisfied 0-rows."""
    g = 0
    for x in coeffs:
        g = gcd(g, x)
    if g == 0:
        if threshold > 0 or (strict and threshold == 0):
            raise InfeasibleError
        return None
    if g > 1:
        coeffs = tuple(x // g for x in coeffs)
        threshold = Fraction(threshold) / g
    return (tuple(coeffs), Fraction(threshold), strict)


def _dedup(rows):
    """Keep, per direction, only the strongest threshold."""
    best: dict[tuple[int, ...], tuple[Fraction, bool]] = {}
    for coeffs, t, strict in rows:
        cur = best.get(coeffs)
        if cur is None or t > cur[0] or (t == cur[0] and strict and not cur[1]):
            best[coeffs] = (t, strict)
    return [(c, t, s) for c, (t, s) in best.items()]


def lp_feasible(constraints, dim: int | None = None) -> bool:
    """Exact rational feasibility of a finite system of linear constraints.

    An empty system is feasible (the whole space). Raises ValueError on
    inconsistent dimensions or unknown relations.
    """
    constraints = list(constraints)
    if not constraints:
        return True
    if dim is None:
        dim = len(constraints[0][0])
    rows = []
    try:
        for a, b, rel in constraints:
            if len(a) != dim:
                raise ValueError("constraints of mixed dimension")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            ia, scale = scale_to_integers(a)
            ib = Fraction(b) * scale
            row = _normalize_row(ia, ib, rel == ">")
            if row is not None:
                rows.append(row)
            if rel == "=":
                row = _normalize_row(vec_neg(ia), -ib, False)
                if row is not None:
                    rows.append(row)
        rows = _dedup(rows)
        alive = [j for j in range(dim) if any(r[0][j] for r in rows)]
        while alive:
            # eliminate the variable producing the fewest new rows
            def cost(j):
                lo = sum(1 for r in rows if r[0][j] > 0)
                hi = sum(1 for r in rows if r[0][j] < 0)
                return lo * hi
            var = min(alive, key=cost)
            lowers = [r for r in rows if r[0][var] > 0]
            uppers = [r for r in rows if r[0][var] < 0]
            keep = [r for r in rows if r[0][var] == 0]
            new_rows = keep
            for (cl, tl, sl) in lowers:
                for (cu, tu, su) in uppers:
                    ml = -cu[var]
                    mu = cl[var]
                    coeffs = tuple(ml * x + mu * y for x, y in zip(cl, cu))
                    row = _normalize_row(coeffs, ml * tl + mu * tu, sl or su)
                    if row is not None:
                        new_rows.append(row)
            rows = _dedup(new_rows)
            alive = [j for j in range(dim) if any(r[0][j] for r in rows)]
    except InfeasibleError:
        return False
    return True


def cone_contains(generators, target) -> bool:
    """Whether target lies in the cone of non-negative combinations of generators.

    Decided through Farkas duality: the point is outside the cone exactly when
    some linear functional is non-negative on every generator and negative on
    the point.
    """
    gens = {primitive_vector(g) for g in generators if any(g)}
    if not gens:
        return all(x == 0 for x in target)
    system = [(g, 0, ">=") for g in sorted(gens)]
    system.append((vec_neg(target), 0, ">"))
    return not lp_feasible(system)


def dual_cone_rays(generators, dim: int) -> tuple[tuple[int, ...], ...]:
    """Primitive extreme rays of the dual cone {v : <g, v> >= 0 for all g}, sorted.

    Requires the generators to span R^dim, so the dual cone is pointed and is
    generated by these rays (none when it is {0}). Exact integer double
    description (Fukuda-Prodon, 1996): start from the simplicial cone of dim
    independent generators (the pivot columns of the sorted generators),
    whose rays are the columns of the inverse of the basis matrix, then cut
    by the other generators one at a time. Each ray keeps the set of
    generators it is tight on; a ray on the positive side of a cut is
    combined with one on the negative side only when the two are adjacent,
    that is when no third ray is tight on every generator both are tight on.
    """
    gens = sorted({primitive_vector(g) for g in generators if any(g)})
    pivots = _eliminate(list(zip(*gens)), len(gens))[1]
    if len(pivots) < dim:
        raise ValueError("generators do not span the ambient space")
    rest = [g for c, g in enumerate(gens) if c not in pivots]
    # reduced, row i of [B | I] is p_i (e_i | row i of B^-1), B the basis rows
    unit = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rows = _eliminate([gens[c] + e for c, e in zip(pivots, unit)], 2 * dim, reduced=True)[0]
    scale = lcm(*(row[i] for i, row in enumerate(rows)))
    # (ray, bitmask of the tight generators, numbered basis first)
    rays = [
        (primitive_vector([row[dim + j] * (scale // row[i]) for i, row in enumerate(rows)]),
         (1 << dim) - 1 - (1 << j))
        for j in range(dim)
    ]
    for i, g in enumerate(rest, start=dim):
        bit = 1 << i
        values = [dot(g, r) for r, _ in rays]
        tight = [z for _, z in rays]
        cut = [(r, z | bit if s == 0 else z) for (r, z), s in zip(rays, values) if s >= 0]
        negative = [m for m, s in enumerate(values) if s < 0]
        for p, sp in enumerate(values):
            if sp <= 0:
                continue
            for m in negative:
                sm = values[m]
                common = tight[p] & tight[m]
                if common.bit_count() < dim - 2 or any(
                    z & common == common for t, z in enumerate(tight) if t != p and t != m
                ):
                    continue
                combo = [sp * a - sm * b for a, b in zip(rays[m][0], rays[p][0])]
                cut.append((primitive_vector(combo), common | bit))
        rays = cut
    return tuple(sorted(r for r, _ in rays))
