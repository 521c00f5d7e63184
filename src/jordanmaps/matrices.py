"""Dense exact matrices over a Field.

Matrices are immutable values: entries are stored as tuples of raw field
values (see exact_fields for the raw model), every operation returns a fresh
matrix, and equality/hashing are structural. Public entry access is 1-based,
matching the standard E_ij matrix-unit notation; `unit(F, n, 1, 2)` is E_12.

Both Jordan products live here:

    jordan_circ(X, Y)    = (XY + YX) / 2      (requires characteristic != 2)
    jordan_diamond(X, Y) =  XY + YX

Rank and inverse use plain exact Gaussian elimination with first-nonzero
pivoting — no magnitude heuristics, so results are deterministic.
"""

from fractions import Fraction

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
        return _row_echelon(self.field, [list(r) for r in self.rows])[1]

    def inverse(self):
        if not self.is_square:
            raise ValueError("inverse needs a square matrix")
        f, n = self.field, self.nrows
        aug = [
            list(row) + [f.one if i == j else f.zero for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        reduced, rank = _row_echelon(f, aug, normalize=True, ncols_limit=n)
        if rank < n:
            raise ValueError("singular matrix")
        return Mat._from_raw(f, tuple(tuple(row[n:]) for row in reduced))

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
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) % p for col in b_cols) for row in a_rows
        )
    if kind == "rational":
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in b_cols) for row in a_rows
        )
    add, mul, zero = field.add, field.mul, field.zero
    out = []
    for row in a_rows:
        out_row = []
        for col in b_cols:
            acc = zero
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _jordan_raw(field, a_rows, b_rows, circ):
    """Rows of ab + ba for square a, b of one size, halved when `circ`."""
    kind = field.kind
    if kind == "galois":
        add, mul = field.add, field.mul
        pairs = zip(_matmul_raw(field, a_rows, b_rows), _matmul_raw(field, b_rows, a_rows))
        if circ:
            h = field.half_one
            return tuple(tuple(mul(add(x, y), h) for x, y in zip(r, s)) for r, s in pairs)
        return tuple(tuple(add(x, y) for x, y in zip(r, s)) for r, s in pairs)
    a_cols = tuple(zip(*a_rows))
    b_cols = tuple(zip(*b_rows))
    cols = tuple(zip(b_cols, a_cols))
    if kind == "prime":
        p = field.p
        h = field.half_one if circ else 1
        return tuple(
            tuple(
                (sum(x * y for x, y in zip(ra, cb)) + sum(x * y for x, y in zip(rb, ca))) * h % p
                for cb, ca in cols
            )
            for ra, rb in zip(a_rows, b_rows)
        )
    h = Fraction(1, 2) if circ else 1
    return tuple(
        tuple(
            (sum(x * y for x, y in zip(ra, cb)) + sum(x * y for x, y in zip(rb, ca))) * h
            for cb, ca in cols
        )
        for ra, rb in zip(a_rows, b_rows)
    )


def _row_echelon(field, rows, normalize=False, ncols_limit=None):
    """In-place exact elimination; returns (rows, rank).

    Pivots are the first nonzero entry in each column (row order), no
    magnitude heuristics. With normalize=True produces reduced row-echelon
    form (used for inversion). `ncols_limit` restricts pivot search to the
    leading columns of an augmented system.
    """
    nrows = len(rows)
    ncols = ncols_limit if ncols_limit is not None else len(rows[0])
    zero = field.zero
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        if normalize:
            inv = field.inv(rows[rank][col])
            rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        span = range(nrows) if normalize else range(rank + 1, nrows)
        for r in span:
            if r == rank:
                continue
            factor = rows[r][col]
            if factor == zero:
                continue
            if not normalize:
                factor = field.div(factor, rows[rank][col])
            rows[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rows, rank


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


def mat_rank(x):
    return x.rank()


def mat_inverse(x):
    return x.inverse()


def mat_transpose(x):
    return x.transpose()


def mat_support(x):
    return x.support()


def mat_apply_endo(omega, x):
    return x.apply_endo(omega)


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
