"""Dense exact matrices over a Field.

Matrices are immutable values: entries are stored as tuples of raw field
values (see exact_fields for the raw model), every operation returns a fresh
matrix, and equality/hashing are structural. Public entry access is 1-based,
matching the standard E_ij matrix-unit notation; `unit(F, n, 1, 2)` is E_12.

Both Jordan products live here:

    jordan_circ(X, Y)    = (XY + YX) / 2      (requires characteristic != 2)
    jordan_diamond(X, Y) =  XY + YX

Products over Q lift each operand to integers over one common denominator
and build a `Fraction` only per result entry; products over F_{p^k} sum in
the log domain through the field's Zech table (see exact_fields).

Rank and inverse share one exact Gauss-Jordan elimination with first-nonzero
pivoting (no magnitude heuristics, so results are deterministic), run per
field kind: mod-p arithmetic on ints over F_p, fraction-free (Bareiss)
elimination of the lifted integer matrix over Q, and field arithmetic over
F_{p^k}.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import UnsupportedInput
from .exact_fields import Scalar


class _BothZero:
    """Singleton returned by is_proportional when both matrices vanish."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTH_ZERO"


BOTH_ZERO = _BothZero()


class Mat:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        """Build from an iterable of row iterables; entries are coerced."""
        coerced = tuple(tuple(field.of(x) for x in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("matrices must be nonempty")
        if any(len(r) != len(coerced[0]) for r in coerced):
            raise ValueError("ragged rows")
        self.field = field
        self.nrows = len(coerced)
        self.ncols = len(coerced[0])
        self.rows = coerced

    @classmethod
    def _from_raw(cls, field, rows):
        """Internal fast path: rows are already canonical raw tuples."""
        self = object.__new__(cls)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0])
        return self

    # -- shape / equality -----------------------------------------------------

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(Scalar(self.field, v)) for v in row) for row in self.rows)
        return f"Mat<{self.nrows}x{self.ncols} {self.field.name()}>[{body}]"

    # -- entry access (1-based, like E_ij) -------------------------------------

    def entry(self, i, j):
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise ValueError(f"index ({i},{j}) out of range for {self.nrows}x{self.ncols}")
        return Scalar(self.field, self.rows[i - 1][j - 1])

    def raw(self, i, j):
        return self.rows[i - 1][j - 1]

    # -- linear structure -------------------------------------------------------

    def _check_same_shape(self, other):
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        add = self.field.add
        return Mat._from_raw(
            self.field,
            tuple(tuple(add(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        f = self.field
        return Mat._from_raw(
            f,
            tuple(tuple(f.sub(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def __neg__(self):
        f = self.field
        return Mat._from_raw(f, tuple(tuple(f.neg(a) for a in r) for r in self.rows))

    def scale(self, c):
        """Multiply every entry by the scalar c."""
        raw = self.field.of(c)
        mul = self.field.mul
        return Mat._from_raw(self.field, tuple(tuple(mul(raw, a) for a in r) for r in self.rows))

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        return Mat._from_raw(self.field, _matmul_raw(self.field, self.rows, other.rows))

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.__matmul__(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- structure queries -------------------------------------------------------

    @property
    def is_zero(self):
        zero = self.field.zero
        return all(v == zero for row in self.rows for v in row)

    @property
    def is_identity(self):
        if not self.is_square:
            return False
        one, zero = self.field.one, self.field.zero
        return all(
            v == (one if i == j else zero)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        )

    def transpose(self):
        return Mat._from_raw(self.field, tuple(zip(*self.rows)))

    def trace(self):
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        acc = self.field.zero
        for i in range(self.nrows):
            acc = self.field.add(acc, self.rows[i][i])
        return Scalar(self.field, acc)

    def support(self):
        """Set of 1-based (i, j) positions with nonzero entries."""
        zero = self.field.zero
        return frozenset(
            (i + 1, j + 1)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if v != zero
        )

    def rank(self):
        f = self.field
        rows = _lift(self.rows)[1] if f.kind == "rational" else [list(r) for r in self.rows]
        return _eliminate(f, rows, self.ncols)[0]

    def inverse(self):
        if not self.is_square:
            raise ValueError("inverse needs a square matrix")
        f, n = self.field, self.nrows
        d, rows = _lift(self.rows) if f.kind == "rational" else (1, self.rows)
        # raw 0 and 1 are the ints 0 and 1 in F_p and F_{p^k}, as in the lifted rows
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        rank, pivot = _eliminate(f, aug, n)
        if rank < n:
            raise ValueError("singular matrix")
        if f.kind == "rational":
            # aug is [pivot*I | pivot*A^-1] for the lifted A = d*self
            return Mat._from_raw(
                f, tuple(tuple(Fraction(d * v, pivot) for v in row[n:]) for row in aug)
            )
        return Mat._from_raw(f, tuple(tuple(row[n:]) for row in aug))

    def apply_endo(self, omega):
        """Apply a ring endomorphism entrywise."""
        if omega.field != self.field:
            raise ValueError("endomorphism belongs to a different field")
        if omega.is_identity:
            return self
        ap = omega.apply_raw
        return Mat._from_raw(self.field, tuple(tuple(ap(v) for v in row) for row in self.rows))

    def conjugate_by(self, t, t_inv=None):
        """t^-1 @ self @ t (t_inv may be supplied to avoid recomputation)."""
        if t_inv is None:
            t_inv = t.inverse()
        return t_inv @ self @ t


def _matmul_raw(field, a_rows, b_rows):
    kind = field.kind
    b_cols = tuple(zip(*b_rows))
    if kind == "prime":
        p = field.p
        return tuple(tuple(sum(map(mul, row, col)) % p for col in b_cols) for row in a_rows)
    if kind == "rational":
        return _rational_products(a_rows, b_cols, 1)
    return _galois_products(field, a_rows, b_cols, field.one)


def _jordan_raw(field, a_rows, b_rows, circ):
    """Rows of ab + ba for square a, b of one size, halved when `circ`."""
    # ab + ba = [a | b] @ [b ; a]
    rows = [ra + rb for ra, rb in zip(a_rows, b_rows)]
    cols = [cb + ca for cb, ca in zip(zip(*b_rows), zip(*a_rows))]
    kind = field.kind
    if kind == "prime":
        p, h = field.p, field.half_one if circ else 1
        return tuple(tuple(sum(map(mul, r, c)) * h % p for c in cols) for r in rows)
    if kind == "rational":
        return _rational_products(rows, cols, 2 if circ else 1)
    return _galois_products(field, rows, cols, field.half_one if circ else field.one)


def _lift(rows):
    """(d, integer rows of d * rows) for rational rows, d the lcm of their denominators."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _rational_products(rows, cols, den):
    """Rows of (rows @ cols) / den over Q, multiplied on the lifted integers."""
    da, a = _lift(rows)
    db, b = _lift(cols)
    d = da * db * den
    return tuple(tuple(Fraction(sum(map(mul, ra, cb)), d) for cb in b) for ra in a)


def _galois_products(field, rows, cols, scale):
    """Rows of (rows @ cols) * scale over F_{p^k}, for a nonzero raw `scale`.

    With a Zech table each entry is summed on discrete logs: a term x*y is
    g^(log x + log y), and g^s + g^t = g^(s + zech[t - s]). Without one
    (characteristic 2, or no log tables) the terms go through the field.
    """
    zech = field._zech
    if zech is None:
        add, mul_, zero, one = field.add, field.mul, field.zero, field.one
        out = []
        for row in rows:
            out_row = []
            for col in cols:
                acc = zero
                for x, y in zip(row, col):
                    if x and y:
                        acc = add(acc, mul_(x, y))
                out_row.append(acc if scale == one else mul_(acc, scale))
            out.append(tuple(out_row))
        return tuple(out)
    log, exp, q1 = field._log, field._exp, field.order - 1
    shift = log[scale]
    log_rows = [[(t, log[x]) for t, x in enumerate(row) if x] for row in rows]
    log_cols = [[log[y] if y else None for y in col] for col in cols]
    out = []
    for log_row in log_rows:
        out_row = []
        for log_col in log_cols:
            acc = None  # log of the partial sum; None while it is 0
            for t, lx in log_row:
                ly = log_col[t]
                if ly is None:
                    continue
                if acc is None:
                    acc = lx + ly
                else:
                    z = zech[(lx + ly - acc) % q1]
                    acc = acc + z if z >= 0 else None
            out_row.append(0 if acc is None else exp[(acc + shift) % q1])
        out.append(tuple(out_row))
    return tuple(out)


def _eliminate(field, rows, ncols):
    """Gauss-Jordan elimination of `rows` in place over their first `ncols`
    columns; returns (rank, pivot).

    The pivot of a column is its first nonzero entry at or below the current
    rank, with no magnitude heuristics. Afterwards every pivot entry equals
    `pivot` and the rest of each pivot column is 0. F_p runs on ints mod p
    and scales pivots to 1. Q runs fraction-free (Bareiss) on the integer
    rows from `_lift`: with pivot c and previous pivot c0, every other row r
    becomes (c*r - r[col]*pivot_row) / c0, an exact division, so `pivot` is
    the last pivot. F_{p^k} runs `_row_echelon` on field arithmetic.
    """
    kind = field.kind
    if kind == "galois":
        return _row_echelon(field, rows, ncols), field.one
    p, nrows = field.p, len(rows)
    rank, prev = 0, 1
    for col in range(ncols):
        at = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        top = rows[rank]
        c = top[col]
        if kind == "prime":
            inv = pow(c, p - 2, p)
            top = rows[rank] = [v * inv % p for v in top]
            for r in range(nrows):
                f = rows[r][col]
                if f and r != rank:
                    rows[r] = [(v - f * w) % p for v, w in zip(rows[r], top)]
        else:
            for r in range(nrows):
                if r != rank:
                    f = rows[r][col]
                    rows[r] = [(c * v - f * w) // prev for v, w in zip(rows[r], top)]
            prev = c
        rank += 1
        if rank == nrows:
            break
    return rank, prev


def _row_echelon(field, rows, ncols):
    """Gauss-Jordan elimination on field arithmetic over the first `ncols`
    columns, pivots scaled to 1; returns the rank."""
    add, mul_ = field.add, field.mul
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        top = rows[rank] = [mul_(inv, v) for v in rows[rank]]
        for r in range(nrows):
            factor = rows[r][col]
            if factor and r != rank:
                neg = field.neg(factor)
                rows[r] = [add(v, mul_(neg, w)) for v, w in zip(rows[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


def random_mat(field, n, rng):
    """A seeded random n x n matrix: n*n `field.random_raw` draws, row by row."""
    if n < 1:
        raise UnsupportedInput(f"matrix size must be >= 1, got {n}")
    return Mat._from_raw(
        field, tuple(tuple(field.random_raw(rng) for _ in range(n)) for _ in range(n))
    )


def random_invertible(field, n, rng):
    """(m, m^-1) for a seeded random invertible n x n matrix.

    Draws `random_mat` until one is invertible. Over F_q a draw is singular
    with probability below 1 - prod(1 - q^-i) < 0.712, so 400 tries all fail
    with probability below 1e-59 (below 1e-142 for q >= 3).
    """
    for _ in range(400):
        m = random_mat(field, n, rng)
        try:
            return m, m.inverse()
        except ValueError:
            continue
    raise RuntimeError("no invertible matrix in 400 random draws")


# -- module-level constructors and operations ---------------------------------


def mat_zero(field, n, m=None):
    m = n if m is None else m
    zero = field.zero
    return Mat._from_raw(field, tuple(tuple(zero for _ in range(m)) for _ in range(n)))


def mat_identity(field, n):
    one, zero = field.one, field.zero
    return Mat._from_raw(
        field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def mat_unit(field, n, i, j, value=1):
    """The matrix unit E_ij (scaled by `value`), 1-based indices."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit index ({i},{j}) out of range for n={n}")
    raw = field.of(value)
    zero = field.zero
    return Mat._from_raw(
        field,
        tuple(
            tuple(raw if (r, c) == (i - 1, j - 1) else zero for c in range(n)) for r in range(n)
        ),
    )


def block_diag(a, b):
    """Block-diagonal sum of two square matrices over one field."""
    if a.field != b.field:
        raise ValueError("matrices over different fields")
    if not (a.is_square and b.is_square):
        raise ValueError("block_diag needs square blocks")
    f = a.field
    zero = f.zero
    n, m = a.nrows, b.nrows
    rows = [tuple(a.rows[i]) + (zero,) * m for i in range(n)]
    rows += [(zero,) * n + tuple(b.rows[i]) for i in range(m)]
    return Mat._from_raw(f, tuple(rows))


def _check_product_args(x, y):
    if x.field != y.field:
        raise ValueError("matrices over different fields")
    if not (x.is_square and y.is_square) or x.nrows != y.nrows:
        raise ValueError("Jordan products need square matrices of equal size")


def jordan_diamond(x, y):
    """x*y + y*x (meaningful in every characteristic)."""
    _check_product_args(x, y)
    f = x.field
    return Mat._from_raw(f, _jordan_raw(f, x.rows, y.rows, False))


def jordan_circ(x, y):
    """(x*y + y*x) / 2; rejects characteristic 2."""
    _check_product_args(x, y)
    f = x.field
    if f.char2:
        raise UnsupportedInput("the circ product needs characteristic != 2; use jordan_diamond")
    return Mat._from_raw(f, _jordan_raw(f, x.rows, y.rows, True))


def is_idempotent(x):
    return x.is_square and (x @ x) == x


def is_proportional(x, y):
    """Scalar c with x = c*y when both are nonzero and collinear.

    Returns BOTH_ZERO when x = y = 0 and None in every other case (including
    exactly one of the two being zero).
    """
    if x.field != y.field or (x.nrows, x.ncols) != (y.nrows, y.ncols):
        raise ValueError("shape or field mismatch")
    f = x.field
    zero = f.zero
    anchor = next(
        ((i, j) for i, row in enumerate(y.rows) for j, v in enumerate(row) if v != zero),
        None,
    )
    if anchor is None:
        return BOTH_ZERO if x.is_zero else None
    if x.is_zero:
        return None
    i, j = anchor
    c = f.div(x.rows[i][j], y.rows[i][j])
    if x == y.scale(Scalar(f, c)):
        return Scalar(f, c)
    return None
