"""Exact integer and rational linear algebra.

Vectors are plain tuples of ints or :class:`fractions.Fraction`, matrices are
immutable :class:`IntMatrix` values. A matrix stores sparse rows: each row is
a tuple of ``(col, value)`` pairs with nonzero values in increasing column
order, and ``entries`` is a dense view built only when asked for (the field
elimination and the tests read it). Products and the d∘d test run on the
sparse rows. All arithmetic is arbitrary precision; nothing in this package
ever touches floating point, and a matrix refuses non-integer entries instead
of truncating them.

Ranks over Q and Z/p, determinant signs, solves and kernel lines all come
from one fraction-free integer elimination (``_eliminate``, in the style of
Bareiss 1968): rational input rows are scaled to integer rows once, and no
``Fraction`` arithmetic runs inside it. At runtime it gives the ranks of
point sets (``rank_rational``), and the basis and first rays of the double
description (``lp.dual_cone_rays``). The one other reduction is the Smith
normal form, a sparse Euclid on ``{col: value}`` rows copied from the
sparse rows, taking unit pivots first; it is the one cohomology kernel, and
``homology`` reads the answers over Z, Q and Z/p from its elementary
divisors. ``rank_over_field``, ``det_sign``, ``coordinates_in_basis`` and
``kernel_line`` answer nothing at runtime: the tests use the first as an
independent route to the field ranks, the next two for the geometric
incidence signs that the face cochain complex is compared with, and the
last for the double description's first rays and the brute-force hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# vectors


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u):
    return tuple(-a for a in u)


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def scale_to_integers(v: Sequence) -> tuple[tuple[int, ...], int]:
    """Integer vector and least positive factor a with v = vector / a."""
    a = lcm(*[x.denominator for x in v])
    if a == 1:
        return tuple(map(int, v)), 1
    return tuple([x.numerator * (a // x.denominator) for x in v]), a


def fractions_to_integer_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a primitive integer vector."""
    return primitive_vector(scale_to_integers(v)[0])


# ---------------------------------------------------------------------------
# matrices


def _entry(x) -> int:
    """An integer matrix entry; bools, floats and non-integral fractions are
    refused rather than truncated."""
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"matrix entry {x!r} is not an integer")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable sparse integer matrix with an explicit shape (0-row/0-col allowed).

    ``rows[r]`` holds the nonzero entries of row r as ``(col, value)`` pairs
    in increasing column order. ``entries`` is a dense view (a tuple of row
    tuples), built on first use; the cohomology path never builds it.
    """

    nrows: int
    ncols: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], ncols: int | None = None) -> "IntMatrix":
        """Matrix from dense rows of integer entries."""
        rs = [tuple(row) for row in rows]
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("declared ncols does not match rows")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        sparse = tuple(
            tuple((j, v) for j, v in enumerate(map(_entry, row)) if v) for row in rs
        )
        return IntMatrix(len(rs), ncols, sparse)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense view: one tuple of ``ncols`` entries per row."""
        out = []
        for row in self.rows:
            dense = [0] * self.ncols
            for j, v in row:
                dense[j] = v
            out.append(tuple(dense))
        return tuple(out)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        right = other.rows
        rows = []
        for left in self.rows:
            acc: dict[int, int] = {}
            for j, a in left:
                for c, y in right[j]:
                    if c in acc:
                        acc[c] += a * y
                    else:
                        acc[c] = a * y
            nonzero = [item for item in acc.items() if item[1]]
            nonzero.sort()
            rows.append(tuple(nonzero))
        return IntMatrix(self.nrows, other.ncols, tuple(rows))

    def is_zero(self) -> bool:
        return not any(self.rows)


# ---------------------------------------------------------------------------
# ring tags


# the first 13 primes: Miller-Rabin to these bases decides primality below
# MAX_PRIME_MODULUS, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; a p of at least
    ``MAX_PRIME_MODULUS`` is refused with ``ValueError``."""
    if p >= MAX_PRIME_MODULUS:
        raise ValueError(
            f"modulus {p} is too large: primality is decided below {MAX_PRIME_MODULUS}"
        )
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def normalize_ring(ring: str) -> tuple:
    """Parse a ring tag: ``"Z"``, ``"Q"`` or ``"Z/p"`` with p prime, written
    in ASCII decimal digits with no leading zero; ``is_prime`` refuses a p
    from ``MAX_PRIME_MODULUS`` on."""
    if ring == "Z":
        return ("Z",)
    if ring == "Q":
        return ("Q",)
    if ring.startswith("Z/"):
        digits = ring[2:]
        if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise ValueError(f"bad ring tag {ring!r}")
        p = int(digits)
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return ("Zp", p)
    raise ValueError(f"unknown ring tag {ring!r}")


# ---------------------------------------------------------------------------
# fraction-free elimination over Q and Z/p


def _eliminate(rows: Sequence[Sequence], ncols: int, p: int | None = None, reduced: bool = False):
    """Fraction-free row echelon form of a matrix over Q or Z/p.

    This is the one elimination behind every field rank, determinant sign,
    solve and kernel in this module. Each step replaces row_i by
    pv*row_i - f*row_r for the rows with f != 0 in the pivot column: the
    rows below the pivot, or all other rows when ``reduced``. Over Q (``p``
    is None) the input rows that are not all ints are first scaled by
    positive factors to primitive integer rows, and each new row is divided
    by its content; over Z/p the integer entries are reduced mod p.

    Returns the echelon rows, the pivot columns and the sign of the
    determinant over Q (0 unless the matrix is square and invertible).
    """
    if p is None:
        # one type test per matrix; rows are converted only when it fails
        if {*map(type, chain.from_iterable(rows))} <= {int}:
            rows = list(rows)
        else:
            rows = [
                r if all(type(x) is int for x in r) else fractions_to_integer_vector(r)
                for r in rows
            ]
    else:
        rows = [[x % p for x in row] for row in rows]
    nrows = len(rows)
    pivots: list[int] = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(0 if reduced else r + 1, nrows):
            f = rows[i][c]
            if f == 0 or i == r:
                continue
            if p is None:
                new = [pv * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
            else:
                rows[i] = [(pv * x - f * y) % p for x, y in zip(rows[i], top)]
            if pv < 0:
                sign = -sign
        pivots.append(c)
    if not len(pivots) == nrows == ncols:
        return rows, pivots, 0
    for r, c in enumerate(pivots):
        if rows[r][c] < 0:
            sign = -sign
    return rows, pivots, sign


def rank_over_field(m: IntMatrix, ring: str) -> int:
    """Rank of an integer matrix over Q or over Z/p (p prime)."""
    kind = normalize_ring(ring)
    if kind[0] == "Z":
        raise ValueError("rank needs a field; use 'Q' or 'Z/p'")
    p = kind[1] if kind[0] == "Zp" else None
    return len(_eliminate(m.entries, m.ncols, p)[1])


def rank_rational(vectors: Sequence[Sequence]) -> int:
    """Rank over Q of a list of int/Fraction row vectors."""
    if not vectors:
        return 0
    return len(_eliminate(vectors, len(vectors[0]))[1])


def det_sign(rows: Sequence[Sequence]) -> int:
    """Sign (-1, 0, +1) of the determinant of a square rational matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return _eliminate(rows, n)[2]


def coordinates_in_basis(basis: Sequence[Sequence], target: Sequence) -> tuple[Fraction, ...] | None:
    """Coefficients c with sum(c_i * basis_i) == target, or None if unsolvable.

    Coefficients of basis vectors that depend on earlier ones are 0.
    """
    k = len(basis)
    # augmented system: one equation per coordinate, the basis vectors as columns
    system = [[b[i] for b in basis] + [t] for i, t in enumerate(target)]
    echelon, pivots, _ = _eliminate(system, k + 1, reduced=True)
    if pivots and pivots[-1] == k:
        return None
    coords = [Fraction(0)] * k
    for row, c in zip(echelon, pivots):
        coords[c] = Fraction(row[k], row[c])
    return tuple(coords)


def kernel_line(rows: Sequence[Sequence], dim: int) -> tuple[int, ...] | None:
    """Primitive integer spanning vector of a one-dimensional kernel, else None.

    The entry at the non-pivot column is positive.
    """
    echelon, pivots, _ = _eliminate(rows, dim, reduced=True)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    scale = lcm(*(row[c] for row, c in zip(echelon, pivots)))
    v = [0] * dim
    v[free] = scale
    for row, c in zip(echelon, pivots):
        v[c] = -row[free] * (scale // row[c])
    return primitive_vector(v)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix."""

    elementary_divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.elementary_divisors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.elementary_divisors if d > 1)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Elementary divisors by sparse Euclid on ``{col: value}`` rows, one per
    nonzero row of ``m.rows`` (of its columns, when there are fewer).

    The pivot is the first entry of absolute value 1, else one of least
    absolute value; row operations reduce its column to remainders. A unit
    pivot clears its column, and column operations then empty the rest of
    its row, so the row is split off as a divisor 1 at once. Once a larger
    pivot's column is clear, column operations touch only the pivot row, so
    it is reduced modulo the pivot and split off as a divisor if nothing else
    is left; otherwise its remainders stay and the least absolute value
    drops. A gcd/lcm exchange then puts the non-unit divisors in
    divisibility order (Kaczynski-Mischaikow-Mrozek, *Computational
    Homology*, 2004).
    """
    if m.nrows > m.ncols:
        # the transpose has the same divisors and fewer rows to sweep per pivot
        cols: list[dict[int, int]] = [{} for _ in range(m.ncols)]
        for i, row in enumerate(m.rows):
            for j, v in row:
                cols[j][i] = v
        rows = [col for col in cols if col]
    else:
        rows = [dict(row) for row in m.rows if row]
    divisors: list[int] = []
    while rows:
        t, c, pv = 0, None, 0
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not pv or abs(x) < abs(pv):
                    t, c, pv = i, j, x
            if abs(pv) == 1:
                break
        top = rows[t]
        unit = abs(pv) == 1
        if unit:
            del rows[t]
            divisors.append(1)
        emptied = False
        for row in rows:
            f = row.get(c)
            if f is None or row is top:
                continue
            q = f // pv
            for j, y in top.items():
                v = row.get(j, 0) - q * y
                if v:
                    row[j] = v
                else:
                    del row[j]
            emptied = emptied or not row
        if not unit and all(c not in row for row in rows if row is not top):
            for j in [j for j in top if j != c]:
                top[j] %= pv
                if not top[j]:
                    del top[j]
            if len(top) == 1:
                divisors.append(abs(pv))
                top.clear()
                emptied = True
        if emptied:
            rows = [row for row in rows if row]
    units = divisors.count(1)
    rest = [d for d in divisors if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            rest[i], rest[j] = gcd(rest[i], rest[j]), lcm(rest[i], rest[j])
    return SmithForm((1,) * units + tuple(rest))
