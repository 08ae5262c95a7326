import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from polytoric import sheaf as sh
from polytoric.linalg import dot, kernel_line, primitive_vector, rank_rational, vec_neg, vec_sub
from polytoric.lp import cone_contains, dual_cone_rays, lp_feasible


def test_dim1_examples():
    assert lp_feasible([((1,), 0, ">="), ((1,), 1, ">=")])
    assert not lp_feasible([((1,), 0, ">="), ((-1,), 1, ">=")])


def test_equality_example():
    assert lp_feasible([((1, 1), 0, ">="), ((1, -1), 3, "=")])


def test_empty_system_is_whole_space():
    assert lp_feasible([])


def test_strict_inequalities_are_exact():
    # x >= 1 and x < 1 (as -x > -1)
    assert not lp_feasible([((1,), 1, ">="), ((-1,), -1, ">")])
    assert lp_feasible([((1,), 1, ">="), ((-1,), -2, ">")])
    # open simplex interior is non-empty, its codimension analogue is not
    assert lp_feasible([((1, 0), 0, ">"), ((0, 1), 0, ">"), ((-1, -1), -1, ">")])
    assert not lp_feasible([((1,), 0, ">"), ((-1,), 0, ">=")])


def test_rational_coefficients():
    assert lp_feasible([((Fraction(1, 2),), Fraction(3, 4), ">=")])
    assert not lp_feasible(
        [((Fraction(1, 2),), Fraction(1), ">="), ((Fraction(-1, 3),), Fraction(-1, 2), ">")]
    )


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        lp_feasible([((1, 0), 0, ">="), ((1,), 0, ">=")])
    with pytest.raises(ValueError):
        lp_feasible([((1,), 0, ">>")])


def _lattice_point_search(constraints, dim):
    for x in product(range(-5, 6), repeat=dim):
        ok = True
        for a, b, rel in constraints:
            v = sum(ai * xi for ai, xi in zip(a, x))
            if rel == ">=" and not v >= b:
                ok = False
            elif rel == ">" and not v > b:
                ok = False
            elif rel == "=" and v != b:
                ok = False
        if ok:
            return True
    return False


def test_agrees_with_lattice_search_on_witnessed_systems():
    # systems built around an integer witness in the box, so a rational
    # solution exists iff the search finds one
    rng = random.Random(3)
    for _ in range(60):
        dim = rng.randint(1, 3)
        witness = tuple(rng.randint(-3, 3) for _ in range(dim))
        constraints = []
        for _ in range(rng.randint(1, 5)):
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            v = sum(ai * wi for ai, wi in zip(a, witness))
            rel = rng.choice((">=", ">", "="))
            b = v if rel in (">=", "=") else v - rng.randint(1, 3)
            constraints.append((a, b, rel))
        assert lp_feasible(constraints)
        assert _lattice_point_search(constraints, dim)


def test_agrees_with_lattice_search_on_contradictions():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 3)
        a = tuple(rng.randint(-3, 3) for _ in range(dim))
        if all(x == 0 for x in a):
            a = (1,) + a[1:]
        b = rng.randint(-3, 3)
        constraints = [(a, b, ">="), (tuple(-x for x in a), -b, ">")]
        assert not lp_feasible(constraints)
        assert not _lattice_point_search(constraints, dim)


def test_cone_contains_basics():
    quadrant = [(1, 0), (0, 1)]
    assert cone_contains(quadrant, (3, 5))
    assert cone_contains(quadrant, (0, 0))
    assert not cone_contains(quadrant, (-1, 0))
    assert not cone_contains(quadrant, (1, -1))


def test_cone_contains_lineality_and_full_cones():
    line = [(1, 1), (-1, -1)]
    assert cone_contains(line, (2, 2))
    assert not cone_contains(line, (1, 0))
    everything = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert cone_contains(everything, (-7, 9))
    assert not cone_contains([], (1,))
    assert cone_contains([], (0, 0))


def test_dual_cone_rays_match_direct_test():
    rng = random.Random(9)
    for _ in range(30):
        dim = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim + 2)]
        try:
            rays = dual_cone_rays(gens, dim)
        except ValueError:
            continue  # not full-dimensional
        for x in product(range(-3, 4), repeat=dim):
            by_rays = all(sum(r * xi for r, xi in zip(ray, x)) >= 0 for ray in rays)
            assert by_rays == cone_contains(gens, x)


def _brute_force_dual_rays(generators, dim):
    """Reference oracle: the feasible kernel lines of all (dim - 1)-subsets."""
    gens = sorted({primitive_vector(g) for g in generators if any(g)})
    if rank_rational(gens) < dim:
        raise ValueError("generators do not span the ambient space")
    lines = filter(None, (kernel_line(s, dim) for s in combinations(gens, dim - 1)))
    rays = {v for line in lines for v in (line, vec_neg(line))}
    return tuple(sorted(v for v in rays if all(dot(g, v) >= 0 for g in gens)))


def test_dual_cone_rays_match_brute_force():
    rng = random.Random(11)
    drawn = set()
    for _ in range(500):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, dim + 4))]
        extra = rng.choice(("none", "opposite", "whole space"))
        if extra == "opposite" and gens:
            gens.append(vec_neg(gens[0]))
        elif extra == "whole space":
            gens += [tuple(s * (i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
        try:
            expected = _brute_force_dual_rays(gens, dim)
        except ValueError:
            with pytest.raises(ValueError):
                dual_cone_rays(gens, dim)
            drawn.add("not spanning")
            continue
        assert dual_cone_rays(gens, dim) == expected, (dim, gens)
        rank = rank_rational(expected) if expected else 0
        drawn.add((dim, "dual is {0}" if not rank else "lineality" if rank < dim else "pointed"))
    for dim in (2, 3, 4):
        assert {(dim, "dual is {0}"), (dim, "lineality"), (dim, "pointed")} <= drawn
    assert {(1, "dual is {0}"), (1, "pointed"), "not spanning"} <= drawn


def test_barrier_cone_rays_match_brute_force(lattices):
    # every face of the corpus: the top face (dual {0}), edges (lineality), vertices
    for lat in lattices.values():
        for f in lat.faces:
            # C_F is spanned by the vertex differences P - F
            verts = lat.polytope.vertices
            gens = [vec_sub(p, q) for p in verts for q in lat.vertex_coords(f.id)]
            assert sh._barrier_cone_rays(lat, f.id) == _brute_force_dual_rays(gens, lat.polytope.dim)
