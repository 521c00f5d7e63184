"""Dense exact matrices over a Field.

Matrices are immutable values: entries are stored as tuples of raw field
values (see exact_fields for the raw model), every operation returns a fresh
matrix, and equality/hashing are structural. Public entry access is 1-based,
matching the standard E_ij matrix-unit notation; `unit(F, n, 1, 2)` is E_12.

Both Jordan products live here:

    jordan_circ(X, Y)    = (XY + YX) / 2      (requires characteristic != 2)
    jordan_diamond(X, Y) =  XY + YX

Products over Q lift each operand to integers over its common denominator
and build a `Fraction` only per result entry; products over F_{p^k}, in
every characteristic, sum in the log domain through the field's Zech table
(see exact_fields). Both Jordan products read ab + ba as [a | b] @ [b ; a].
An all-zero row of [a | b] or column of [b ; a] gives zero entries, since
every term of their dot products is 0; over F_p and Q those dot products
are not computed, and over F_{p^k} the log-domain sums skip zero terms
anyway. The steps of a certificate chain have few nonzero rows and
columns, so replaying one costs about what those rows and columns hold.

`conjugator(a, b, w, transpose)` prepares the map x -> a @ w(x)^t @ b once,
the shape of every twisted conjugation T w(X)^t T^-1 the package evaluates,
with the twist folded into the products: the transpose reads the rows of x
as columns. Over F_p it reduces mod p once per result entry; over Q it lifts
a and b when it is prepared, so each call lifts only x and builds one
`Fraction` per result entry over a single common denominator; over F_{p^k}
it prepares the log rows of a and log columns of b, reads a Frobenius power
w off the logs of x (log w(y) = p^e log y mod q - 1) and runs two log-domain
product passes.

Rank and inverse share one exact Gauss-Jordan elimination with first-nonzero
pivoting (no magnitude heuristics, so results are deterministic), run per
field kind: mod-p arithmetic on ints over F_p, fraction-free (Bareiss)
elimination of the lifted integer matrix over Q, and elimination on
discrete logs through the Zech table over F_{p^k}.
"""

from fractions import Fraction
from math import lcm
from operator import add, mul

from .errors import UnsupportedInput
from .exact_fields import Scalar


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
        return isinstance(other, Mat) and self.field is other.field and self.rows == other.rows

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
        if self.field is not other.field:
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
        if self.field is not other.field:
            raise ValueError("matrices over different fields")
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        return Mat._from_raw(self.field, _matmul_raw(self.field, self.rows, other.rows))

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


def conjugator(a, b, endo=None, transpose=False):
    """The map x -> a @ w(x) @ b, or a @ w(x)^t @ b when `transpose`, with w =
    `endo` entrywise (none when None), prepared once for fixed square a and b
    of one size over one field; x must be a square matrix of that size and field."""
    if a.field is not b.field or (endo is not None and endo.field is not a.field):
        raise ValueError("matrices or endomorphism over different fields")
    if not (a.is_square and b.is_square) or a.nrows != b.nrows:
        raise ValueError("conjugator needs square matrices of equal size")
    f, kind = a.field, a.field.kind
    b_cols = tuple(zip(*b.rows))
    # only F_{p^k} has a w other than the identity
    if kind == "prime":
        p, a_rows = f.p, a.rows

        def apply(x):
            x_cols = x.rows if transpose else tuple(zip(*x.rows))
            ax = [[sum(map(mul, r, c)) for c in x_cols] for r in a_rows]
            return Mat._from_raw(
                f, tuple(tuple(sum(map(mul, r, c)) % p for c in b_cols) for r in ax)
            )

    elif kind == "rational":
        da, a_int = _lift(a.rows)
        db, b_int = _lift(b_cols)

        def apply(x):
            dx, x_int = _lift(x.rows)
            x_cols = x_int if transpose else tuple(zip(*x_int))
            ax = [[sum(map(mul, r, c)) for c in x_cols] for r in a_int]
            d = da * dx * db
            return Mat._from_raw(
                f, tuple(tuple(Fraction(sum(map(mul, r, c)), d) for c in b_int) for r in ax)
            )

    else:
        log_a, log_b = _log_rows(f, a.rows), _log_cols(f, b_cols)
        e = 0 if endo is None else endo.e

        def apply(x):
            x_cols = x.rows if transpose else tuple(zip(*x.rows))
            ax = _galois_products(f, log_a, _log_cols(f, x_cols, e))
            return Mat._from_raw(f, _galois_products(f, _log_rows(f, ax), log_b))

    return apply


def conjugated_idempotent(a, b, lo, hi):
    """a @ mat_diag_idempotent(F, n, lo, hi) @ b, as the product of columns
    lo..hi-1 of a with rows lo..hi-1 of b (zero when lo == hi)."""
    f = a.field
    if lo == hi:
        return mat_zero(f, a.nrows)
    return Mat._from_raw(f, _matmul_raw(f, tuple(r[lo:hi] for r in a.rows), b.rows[lo:hi]))


def _matmul_raw(field, a_rows, b_rows):
    kind = field.kind
    b_cols = tuple(zip(*b_rows))
    if kind == "prime":
        p = field.p
        return tuple(tuple(sum(map(mul, row, col)) % p for col in b_cols) for row in a_rows)
    if kind == "rational":
        (da, a), (db, b) = _lift(a_rows), _lift(b_cols)
        d = da * db
        return tuple(tuple(Fraction(sum(map(mul, r, c)), d) for c in b) for r in a)
    return _galois_products(field, _log_rows(field, a_rows), _log_cols(field, b_cols))


def _jordan_raw(field, a_rows, b_rows, circ):
    """Rows of ab + ba for square a, b of one size, halved when `circ`.

    ab + ba = [a | b] @ [b ; a]: entry (i, j) is the dot product of row i of
    [a | b] with column j of [b ; a]. When that row or that column is all
    zero, every term of the dot product is 0, so the entry is the field's
    zero and no dot product is computed for it. Which rows and columns are
    zero is read off the operands on every call, and the result is the one
    the full products give. Over F_{p^k} the log-domain sums of
    `_galois_products` already visit only a row's nonzero entries.
    """
    kind = field.kind
    if kind == "rational":
        # products over Q run on the lifted integers, each operand lifted once
        (da, a_rows), (db, b_rows) = _lift(a_rows), _lift(b_rows)
    rows = [ra + rb for ra, rb in zip(a_rows, b_rows)]
    cols = map(add, zip(*b_rows), zip(*a_rows))
    if kind == "galois":
        shift = field._log[field.half_one] if circ else 0
        return _galois_products(field, _log_rows(field, rows), _log_cols(field, cols), shift)
    # an all-zero column becomes (), which marks its entries as zero
    cols = [c if any(c) else () for c in cols]
    zero = field.zero
    blank = (zero,) * len(cols)
    if kind == "prime":
        p, h = field.p, field.half_one if circ else 1
        return tuple(
            tuple(sum(map(mul, r, c)) * h % p if c else zero for c in cols) if any(r) else blank
            for r in rows
        )
    d = da * db * (2 if circ else 1)
    return tuple(
        tuple(Fraction(sum(map(mul, r, c)), d) if c else zero for c in cols) if any(r) else blank
        for r in rows
    )


def _lift(rows):
    """(d, integer rows of d * rows) for rational rows, d the lcm of their denominators."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _log_rows(field, rows):
    """Each row of raw F_{p^k} values as (position, discrete log) of its nonzero entries."""
    log = field._log
    return [[(t, log[x]) for t, x in enumerate(row) if x] for row in rows]


def _log_cols(field, cols, e=0):
    """Each column of raw F_{p^k} values as the discrete logs of the images of
    its entries under y -> y^(p^e), None for 0: log y^(p^e) = p^e log y mod q - 1."""
    log, q1, s = field._log, field.order - 1, field.p ** e
    return [[log[y] * s % q1 if y else None for y in col] for col in cols]


def _galois_products(field, log_rows, log_cols, shift=0):
    """Rows of (rows @ cols) * g^shift over F_{p^k}, for rows given by
    `_log_rows` and columns by `_log_cols`.

    Each entry is summed on discrete logs: a term x*y is g^(log x + log y),
    and g^s + g^t = g^(s + zech[t - s]). Every Galois field has these tables,
    characteristic 2 included.
    """
    zech, exp, q1 = field._zech, field._exp, field.order - 1
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
    the last pivot. F_{p^k} runs `_eliminate_logs`.
    """
    kind = field.kind
    if kind == "galois":
        return _eliminate_logs(field, rows, ncols), field.one
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


def _eliminate_logs(field, rows, ncols):
    """`_eliminate` over F_{p^k}, pivots scaled to 1; returns the rank.

    Entries are held as discrete logs, None for 0, and converted back at the
    end. The update v - f*w is v + g^(log f + log(-1) + log w), summed
    through the Zech table as in `_galois_products`; log(-1) is (q-1)/2 in
    odd characteristic and 0 in characteristic 2.
    """
    zech, log, exp, q1 = field._zech, field._log, field._exp, field.order - 1
    neg = 0 if field.char2 else q1 // 2
    logs = [[log[v] if v else None for v in row] for row in rows]
    nrows = len(logs)
    rank = 0
    for col in range(ncols):
        at = next((r for r in range(rank, nrows) if logs[r][col] is not None), None)
        if at is None:
            continue
        logs[rank], logs[at] = logs[at], logs[rank]
        lc = logs[rank][col]
        top = logs[rank] = [None if w is None else (w - lc) % q1 for w in logs[rank]]
        for r in range(nrows):
            lf = logs[r][col]
            if lf is None or r == rank:
                continue
            shift = lf + neg
            row = logs[r]
            for t, w in enumerate(top):
                if w is None:
                    continue
                v = row[t]
                if v is None:
                    row[t] = (shift + w) % q1
                else:
                    z = zech[(shift + w - v) % q1]
                    row[t] = (v + z) % q1 if z >= 0 else None
        rank += 1
        if rank == nrows:
            break
    rows[:] = [[0 if v is None else exp[v] for v in row] for row in logs]
    return rank


# Fraction(a, b) for |a| <= 20 and 1 <= b <= 12, at 12 * (a + 20) + b - 1
_RANDOM_FRACTIONS = tuple(Fraction(a, b) for a in range(-20, 21) for b in range(1, 13))


def _raw_draw(field, rng):
    """A callable returning one seeded raw value per call from a
    `random.Random` rng: rng.randrange(q) over F_q, and over Q
    Fraction(rng.randint(-20, 20), rng.randint(1, 12)), read from
    `_RANDOM_FRACTIONS` at 12 * randrange(41) + randrange(12), since
    randint(a, b) is a + randrange(b - a + 1). Each randrange(n) replays the
    loop of CPython's (3.11.7) `Random._randbelow_with_getrandbits` over
    n.bit_length() bits, without randrange's argument handling;
    `test_draws_replay_randrange` pins the draws to those calls."""
    getrandbits = rng.getrandbits
    if field.is_finite:
        q, k = field.order, field.order.bit_length()

        def draw():
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            return r

        return draw

    def draw():
        a = getrandbits(6)
        while a >= 41:
            a = getrandbits(6)
        b = getrandbits(4)
        while b >= 12:
            b = getrandbits(4)
        return _RANDOM_FRACTIONS[12 * a + b]

    return draw


def random_mat(field, n, rng):
    """A seeded random n x n matrix: one `_raw_draw` value per entry, row by row."""
    if n < 1:
        raise UnsupportedInput(f"matrix size must be >= 1, got {n}")
    draw = _raw_draw(field, rng)
    return Mat._from_raw(field, tuple(tuple(draw() for _ in range(n)) for _ in range(n)))


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


def mat_zero(field, n):
    return Mat._from_raw(field, ((field.zero,) * n,) * n)


def mat_identity(field, n):
    return mat_diag_idempotent(field, n, 0, n)


def mat_diag_idempotent(field, n, lo, hi):
    """E_{lo+1,lo+1} + ... + E_{hi,hi} inside M_n: ones on the diagonal
    positions lo+1..hi (1-based), zeros elsewhere."""
    one, zero = field.one, field.zero
    return Mat._from_raw(
        field,
        tuple(
            tuple(one if (i == j and lo <= i < hi) else zero for j in range(n))
            for i in range(n)
        ),
    )


def mat_unit(field, n, i, j, value=1):
    """The matrix unit E_ij (scaled by `value`), 1-based indices."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit index ({i},{j}) out of range for n={n}")
    blank = (field.zero,) * n
    row = blank[: j - 1] + (field.of(value),) + blank[j:]
    return Mat._from_raw(field, (blank,) * (i - 1) + (row,) + (blank,) * (n - i))


def block_diag(a, b):
    """Block-diagonal sum of two square matrices over one field."""
    if a.field is not b.field:
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
    if x.field is not y.field:
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
