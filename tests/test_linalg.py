import random
import time
from fractions import Fraction
from math import gcd

import pytest

from polytoric.linalg import (
    MAX_PRIME_MODULUS,
    IntMatrix,
    coordinates_in_basis,
    det_sign,
    dot,
    is_prime,
    kernel_line,
    normalize_ring,
    rank_over_field,
    rank_rational,
    smith_normal_form,
)


def test_dot():
    assert dot((), ()) == 0
    assert dot((1, -2, 3), (4, 5, -6)) == -24
    assert dot((Fraction(1, 2), 3), (Fraction(2, 3), Fraction(-1, 6))) == Fraction(-1, 6)
    big = 2**64 + 1
    assert dot((big, big), (big, -3)) == big * big - 3 * big
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((), (1,))


def M(rows, ncols=None):
    return IntMatrix.from_rows(rows, ncols=ncols)


def test_smith_diag_2_3():
    # unimodular search oracle: divisors of diag(2,3) are 1 and 6
    assert smith_normal_form(M([[2, 0], [0, 3]])).elementary_divisors == (1, 6)
    # the least entry 2 clears its column but leaves remainders in its row
    assert smith_normal_form(M([[2, 3]])).elementary_divisors == (1,)
    assert smith_normal_form(M([[4, 6], [0, 10]])).elementary_divisors == (2, 20)


def test_smith_identity():
    identity = M([[int(i == j) for j in range(3)] for i in range(3)])
    assert smith_normal_form(identity).elementary_divisors == (1, 1, 1)


def test_smith_zero():
    snf = smith_normal_form(M([[0, 0], [0, 0]]))
    assert snf.elementary_divisors == ()
    assert snf.rank == 0


def _determinantal_divisors_oracle(rows):
    # d_k = D_k / D_{k-1} with D_k the gcd of all k x k minors
    from itertools import combinations
    from math import gcd

    def minor_det(rs, cs):
        sub = [[rows[i][j] for j in cs] for i in rs]
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            total += (-1) ** j * sub[0][j] * minor_det_inner(
                [r[:j] + r[j + 1 :] for r in sub[1:]]
            )
        return total

    def minor_det_inner(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            total += (-1) ** j * sub[0][j] * minor_det_inner(
                [r[:j] + r[j + 1 :] for r in sub[1:]]
            )
        return total

    nr, nc = len(rows), len(rows[0])
    divisors = []
    previous = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, minor_det(rs, cs))
        if g == 0:
            break
        divisors.append(g // previous)
        previous = g
    return tuple(divisors)


def test_smith_against_determinantal_divisors():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    expected = _determinantal_divisors_oracle(m)
    assert expected == (2, 2, 156)  # frozen from the oracle
    assert smith_normal_form(M(m)).elementary_divisors == expected

    rng = random.Random(17)
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        assert (
            smith_normal_form(M(m, ncols=nc)).elementary_divisors
            == _determinantal_divisors_oracle(m)
        )


def test_smith_divisibility_chain_and_rank():
    rng = random.Random(7)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = M([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        snf = smith_normal_form(m)
        divs = snf.elementary_divisors
        assert all(d > 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        assert snf.rank == rank_over_field(m, "Q")


def _random_unimodular_ops(rows, rng, steps=10):
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_smith_invariant_under_unimodular_factors():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        left = _random_unimodular_ops(m, rng)
        both = [list(r) for r in zip(*_random_unimodular_ops(list(zip(*left)), rng))]
        assert (
            smith_normal_form(M(m, ncols=n)).elementary_divisors
            == smith_normal_form(M(both, ncols=n)).elementary_divisors
        )


def test_rank_over_fields():
    m = M([[2, 0], [0, 2]])
    assert rank_over_field(m, "Q") == 2
    assert rank_over_field(m, "Z/2") == 0
    assert rank_over_field(M([[1, 1], [1, 1]]), "Q") == 1


def test_rank_rejects_bad_rings():
    m = M([[1]])
    with pytest.raises(ValueError):
        rank_over_field(m, "Z/4")
    with pytest.raises(ValueError):
        rank_over_field(m, "Z/1")
    with pytest.raises(ValueError):
        rank_over_field(m, "Z")


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_2e5():
    assert [p for p in range(200_000) if is_prime(p)] == [
        p for p in range(200_000) if trial_division_is_prime(p)
    ]


def test_is_prime_decides_large_moduli_at_once():
    start = time.perf_counter()
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)  # a Mersenne prime
    assert normalize_ring("Z/1000000000000000003") == ("Zp", 10**18 + 3)
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert not is_prime(3317044064679887385961979)  # 17 * 1709 * ...
    assert not is_prime(10**18 + 1) and not is_prime((2**13 - 1) * (2**61 - 1))
    assert time.perf_counter() - start < 1.0


def test_is_prime_refuses_moduli_it_cannot_decide():
    # the bound is the least strong pseudoprime to all 13 bases, which the
    # test would call prime
    assert MAX_PRIME_MODULUS == 1287836182261 * 2575672364521
    for p in (MAX_PRIME_MODULUS, MAX_PRIME_MODULUS + 2, 10**30):
        with pytest.raises(ValueError, match="too large"):
            is_prime(p)
        with pytest.raises(ValueError, match="too large"):
            normalize_ring(f"Z/{p}")


def test_eliminate_keeps_the_callers_rows():
    rows = [[2, 4], [1, 3]]
    assert rank_rational(rows) == 2 and det_sign(rows) == 1
    assert rows == [[2, 4], [1, 3]]
    mixed = [[Fraction(1, 2), 1], [1, 2]]
    assert rank_rational(mixed) == 1 and det_sign(mixed) == 0
    assert mixed == [[Fraction(1, 2), 1], [1, 2]]


def test_rank_mod_p_differs_from_q_exactly_on_torsion():
    m = M([[2, 0], [0, 3]])
    assert rank_over_field(m, "Q") == 2
    assert rank_over_field(m, "Z/2") == 1
    assert rank_over_field(m, "Z/3") == 1
    assert rank_over_field(m, "Z/5") == 2


def test_det_sign():
    assert det_sign([[2, 0], [0, 3]]) == 1
    assert det_sign([[0, 1], [1, 0]]) == -1
    assert det_sign([[1, 2], [2, 4]]) == 0
    assert det_sign([[Fraction(1, 2)]]) == 1


def test_coordinates_in_basis():
    basis = [(1, 0, 1), (0, 1, 1)]
    assert coordinates_in_basis(basis, (2, 3, 5)) == (2, 3)
    assert coordinates_in_basis(basis, (0, 0, 1)) is None
    assert coordinates_in_basis([], (0, 0)) == ()
    assert coordinates_in_basis([], (1, 0)) is None


def test_kernel_line():
    assert kernel_line([(1, 1)], 2) in ((1, -1), (-1, 1))
    assert kernel_line([(1, 0, 0), (0, 1, 0)], 3) in ((0, 0, 1), (0, 0, -1))
    assert kernel_line([(1, 0), (0, 1)], 2) is None  # trivial kernel
    assert kernel_line([], 1) in ((1,), (-1,))


def test_smith_recovers_chosen_divisors_under_unimodular_factors():
    # U * diag(d_1 | d_2 | ... | d_r, 0, ...) * V with U, V unimodular: the
    # divisors are known by construction
    rng = random.Random(23)
    seen = {"torsion": 0, "zero rows": 0, "zero cols": 0, "12x12": 0}
    for _ in range(400):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.1:
            nr = nc = 12
        rank = rng.randint(0, min(nr, nc))
        divisors = [1]
        for _ in range(rank):
            divisors.append(divisors[-1] * rng.choice((1, 1, 1, 2, 3, 5)))
        divisors = divisors[1:]
        diag = [[divisors[i] if i == j and i < rank else 0 for j in range(nc)] for i in range(nr)]
        left = _random_unimodular_ops(diag, rng, steps=3 * nr)
        both = [list(r) for r in zip(*_random_unimodular_ops(list(zip(*left)), rng, steps=3 * nc))]
        got = smith_normal_form(M(both, ncols=nc)).elementary_divisors
        assert got == tuple(divisors), (both, divisors)
        seen["torsion"] += any(d > 1 for d in divisors)
        seen["zero rows"] += rank < nr
        seen["zero cols"] += rank < nc
        seen["12x12"] += nr == nc == 12
    assert all(seen.values()), seen
    for shape in ((0, 0), (0, 5), (5, 0)):
        empty = M([[0] * shape[1] for _ in range(shape[0])], ncols=shape[1])
        assert smith_normal_form(empty).elementary_divisors == ()


def test_matrix_shapes_and_product():
    a = M([[1, 2], [3, 4]])
    b = M([[1, 0], [0, 1]])
    assert a.mul(b).entries == a.entries
    z = IntMatrix.from_rows([], ncols=3)
    assert z.nrows == 0 and z.ncols == 3
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [1]])


def test_matrix_rows_are_sparse_and_entries_dense():
    m = M([[0, 3, 0], [0, 0, 0], [-1, 0, 2]])
    assert m.rows == (((1, 3),), (), ((0, -1), (2, 2)))
    assert m.entries == ((0, 3, 0), (0, 0, 0), (-1, 0, 2))
    assert M([[Fraction(4, 2), 0]]).rows == (((0, 2),),)
    assert type(M([[Fraction(4, 2)]]).rows[0][0][1]) is int


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, Fraction(3, 2), "1", None])
def test_matrix_rejects_non_integer_entries(bad):
    # int(1.5) would give 1 and True would give 1: no entry is coerced
    with pytest.raises(ValueError, match="not an integer"):
        IntMatrix.from_rows([[1, bad]])


# ---------------------------------------------------------------------------
# reference oracle for the fraction-free elimination


def _gauss_jordan(rows, ncols, p=None):
    """Reduced row echelon form with unit pivots, in Fraction (Q) or mod p.

    Returns the rows, the pivot columns and the determinant (square input).
    """
    if p is None:
        a = [[Fraction(x) for x in row] for row in rows]
        inv, norm = (lambda x: 1 / x), (lambda x: x)
    else:
        a = [[x % p for x in row] for row in rows]
        inv, norm = (lambda x: pow(x, -1, p)), (lambda x: x % p)
    pivots, det = [], Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][c]
        s = inv(a[r][c])
        a[r] = [norm(x * s) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < len(a):
        det = Fraction(0)
    return a, pivots, det


def _oracle_kernel_line(rows, dim):
    a, pivots, _ = _gauss_jordan(rows, dim)
    if dim - len(pivots) != 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for row, c in zip(a, pivots):
        v[c] = -row[free]
    scale = 1
    for x in v:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _oracle_coordinates(basis, target):
    system = [[b[i] for b in basis] + [t] for i, t in enumerate(target)]
    a, pivots, _ = _gauss_jordan(system, len(basis) + 1)
    if len(basis) in pivots:
        return None
    coords = [Fraction(0)] * len(basis)
    for row, c in zip(a, pivots):
        coords[c] = row[-1]
    return tuple(coords)


def _random_matrix(rng, nr, nc, fractions):
    def entry():
        if fractions and rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.choice((0, 0, 1, -1, rng.randint(-5, 5)))

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.4:
        # rank deficient: one row is a combination of two others
        i, j, k = (rng.randrange(nr) for _ in range(3))
        c = rng.randint(-2, 2)
        rows[i] = [c * x + y for x, y in zip(rows[j], rows[k])]
    return rows


def _shapes(rng):
    yield from ((0, 0), (0, 3), (3, 0), (1, 1), (1, 1))
    for _ in range(300):
        yield rng.randint(1, 5), rng.randint(1, 5)


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(2024)
    seen = {"deficient": 0, "solvable": 0, "unsolvable": 0, "line": 0, "no line": 0}
    for trial, (nr, nc) in enumerate(_shapes(rng)):
        rows = _random_matrix(rng, nr, nc, fractions=trial % 2 == 1)
        _, pivots, _ = _gauss_jordan(rows, nc)
        if len(pivots) < min(nr, nc):
            seen["deficient"] += 1
        if nr and nc:
            assert rank_rational(rows) == len(pivots), rows
        if all(isinstance(x, int) for row in rows for x in row):
            m = M(rows, ncols=nc)
            assert rank_over_field(m, "Q") == len(pivots), rows
            for p in (2, 3):
                assert rank_over_field(m, f"Z/{p}") == len(_gauss_jordan(rows, nc, p)[1]), rows
        if nr == nc:
            det = _gauss_jordan(rows, nc)[2]
            assert det_sign(rows) == (det > 0) - (det < 0), rows

        # kernel line, up to sign; None unless the kernel is a line
        expected = _oracle_kernel_line(rows, nc) if nc else None
        got = kernel_line(rows, nc) if nc else None
        if expected is None:
            assert got is None, rows
            seen["no line"] += 1
        else:
            assert got in (expected, tuple(-x for x in expected)), rows
            seen["line"] += 1

        # solve with the rows as basis vectors, for a reachable and a random target
        coefs = [rng.randint(-2, 2) for _ in rows]
        reachable = [sum((c * row[i] for c, row in zip(coefs, rows)), 0) for i in range(nc)]
        for target in (reachable, [rng.randint(-3, 3) for _ in range(nc)]):
            expected = _oracle_coordinates(rows, target)
            assert coordinates_in_basis(rows, target) == expected, (rows, target)
            seen["unsolvable" if expected is None else "solvable"] += 1
    # the seeded draw exercises every branch
    assert all(seen.values()), seen
