"""Map containers and product-preservation checking.

A JordanMap is a function M_n(F) -> M_m(F) tagged with the product it is
meant to preserve: mode "circ" for x o y = (xy + yx)/2, mode "diamond" for
x <> y = xy + yx (the char-2-safe variant). A body is one function, of a kind:

  * table        -- explicit graph over a small finite domain,
  * conjugation  -- X |-> T w(X) T^-1 or T w(X)^t T^-1 with w a ring
                    endomorphism applied entrywise (`twisted`),
  * constant / zero,
  * oracle       -- arbitrary callable, whose outputs are checked.

Verification budgets are carried by Strategy values so every probabilistic
answer is reproducible from (count, seed).
"""

import functools
import random
from array import array
from dataclasses import dataclass
from operator import itemgetter

from .errors import UnsupportedInput
from .matrices import Mat, _jordan_raw, conjugator, jordan_circ, jordan_diamond, mat_zero

CIRC = "circ"
DIAMOND = "diamond"

_TABLE_CAP = 10_000
_PAIR_CAP = 10_000_000


@dataclass(frozen=True)
class Strategy:
    """How much checking to do: every pair, or `count` seeded random draws.

    `pairs` optionally gives multiplicativity pre-checks a smaller budget than
    point-wise map comparisons; it defaults to `count`.
    """

    kind: str
    count: int = 1000
    seed: int = 0
    pairs: int = None

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "sampled" and self.count < 1:
            raise ValueError("sampled strategy needs count >= 1")
        if self.pairs is not None and self.pairs < 1:
            raise ValueError("strategy needs pairs >= 1")

    @staticmethod
    def exhaustive():
        return Strategy(kind="exhaustive")

    @staticmethod
    def sampled(count=1000, seed=0, pairs=None):
        return Strategy(kind="sampled", count=count, seed=seed, pairs=pairs)

    @property
    def pair_budget(self):
        return self.count if self.pairs is None else self.pairs

    def describe(self):
        if self.kind == "exhaustive":
            return "exhaustive"
        return f"sampled:{self.count}:{self.seed}"


def _parse_strategy(text):
    """Parse "exhaustive" or "sampled:N:SEED" (the CLI --verify format)."""
    if text == "exhaustive":
        return Strategy.exhaustive()
    parts = text.split(":")
    if parts[0] == "sampled" and len(parts) <= 3:
        try:
            count = int(parts[1]) if len(parts) > 1 else 1000
            seed = int(parts[2]) if len(parts) > 2 else 0
            return Strategy.sampled(count=count, seed=seed)
        except ValueError:
            pass
    raise UnsupportedInput(f"cannot parse verification strategy {text!r}")


def _resolve_strategy(phi, verification=None):
    """The strategy to use: `verification` as given (a Strategy or its CLI
    text), else exhaustive for domains of at most 10^5 ordered pairs (316
    matrices; of the domains that can be classified only M_2(F_3)) and 1000
    seeded samples otherwise."""
    if verification is None:
        size = phi.domain_size
        if size is not None and size * size <= 100_000:
            return Strategy.exhaustive()
        return Strategy.sampled()
    if isinstance(verification, str):
        return _parse_strategy(verification)
    return verification


class JordanMap:
    """A map M_n(F) -> M_m(F) with a declared product mode and domain.

    `domain` is "full" or "upper_triangular" (the latter restricts inputs to
    upper-triangular matrices, used by the triangular counterexample).
    `body` is (kind, fn): a call validates its input, returns fn(x), and
    checks the output only for an oracle, the one kind the map did not build.
    """

    def __init__(self, field, n, mode, body, m=None, domain="full"):
        if mode not in (CIRC, DIAMOND):
            raise ValueError(f"unknown product mode {mode!r}")
        if domain not in ("full", "upper_triangular"):
            raise ValueError(f"unknown domain {domain!r}")
        if n < 1:
            raise ValueError("domain size n must be >= 1")
        self.field = field
        self.n = n
        self.m = n if m is None else m
        self.mode = mode
        self.domain = domain
        self._kind, self._fn = body

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, field, n, entries, mode=CIRC, domain="full"):
        """Explicit map given as (x, fx) pairs covering the whole domain."""
        size = _table_size(field, n, domain)
        items = entries.items() if isinstance(entries, dict) else entries
        table = {}
        m = None
        for count, (x, fx) in enumerate(items, 1):
            if not isinstance(x, Mat) or not isinstance(fx, Mat):
                raise UnsupportedInput("table entries must be matrix pairs")
            if x.field != field or x.nrows != n or x.ncols != n:
                raise UnsupportedInput("table key outside the declared domain")
            if domain == "upper_triangular" and not _is_upper_triangular(x):
                raise UnsupportedInput("table key outside the declared domain")
            if fx.field != field or not fx.is_square:
                raise UnsupportedInput("table value must be a square matrix over the same field")
            if m is None:
                m = fx.nrows
            elif fx.nrows != m:
                raise UnsupportedInput("table values have inconsistent sizes")
            table[x] = fx
            if len(table) != count:
                raise UnsupportedInput("duplicate table key")
        if len(table) != size:
            raise UnsupportedInput(
                f"table covers {len(table)} of {size} domain matrices"
            )
        return cls(field, n, mode, ("table", table.__getitem__), m=m, domain=domain)

    @classmethod
    def conjugation(cls, t, endo=None, transpose=False, mode=CIRC, t_inv=None):
        """X |-> T w(X) T^-1, optionally transposing first (t_inv may be
        supplied to avoid recomputation, as in Mat.conjugate_by)."""
        if not t.is_square:
            raise UnsupportedInput("conjugating matrix must be square")
        if t_inv is None:
            t_inv = t.inverse()
        field, n = t.field, t.nrows
        if endo is not None and endo.field != field:
            raise UnsupportedInput("endomorphism field does not match the matrix field")
        return cls(field, n, mode, ("conjugation", twisted(conjugator(t, t_inv), endo, transpose)))

    @classmethod
    def constant(cls, field, n, value, mode=CIRC):
        if value.field != field or not value.is_square:
            raise UnsupportedInput("constant value must be square over the same field")
        return cls(field, n, mode, ("constant", lambda x: value), m=value.nrows)

    @classmethod
    def zero(cls, field, n, mode=CIRC, m=None):
        return cls.constant(field, n, mat_zero(field, n if m is None else m), mode=mode)

    @classmethod
    def from_oracle(cls, field, n, fn, mode=CIRC, m=None, domain="full"):
        return cls(field, n, mode, ("oracle", fn), m=m, domain=domain)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x):
        if not isinstance(x, Mat) or x.field != self.field:
            raise UnsupportedInput("input must be a matrix over the map's field")
        if x.nrows != self.n or x.ncols != self.n:
            raise UnsupportedInput(f"input must be {self.n}x{self.n}")
        if self.domain == "upper_triangular" and not _is_upper_triangular(x):
            raise UnsupportedInput("input outside the upper-triangular domain")
        out = self._fn(x)
        if self._kind == "oracle" and (not isinstance(out, Mat) or out.field != self.field
                                       or out.nrows != self.m or out.ncols != self.m):
            raise UnsupportedInput("oracle returned a value outside M_m(F)")
        return out

    # -- domain handling ------------------------------------------------------

    @property
    def body_kind(self):
        return self._kind

    @property
    def domain_size(self):
        """Number of domain matrices, or None when the field is infinite."""
        if not self.field.is_finite:
            return None
        return _domain_size(self.field, self.n, self.domain)

    def domain_iter(self):
        """All domain matrices in a fixed row-major order (finite fields)."""
        if not self.field.is_finite:
            raise UnsupportedInput("cannot enumerate matrices over an infinite field")
        return _domain_matrices(self.field, self.n, self.domain)

    def sample_domain(self, rng):
        """A seeded random domain matrix: one draw per free position, row by
        row; `rng.randrange(q)` over F_q, `Field.random_raw` over Q."""
        f, n = self.field, self.n
        if f.is_finite:
            draw = functools.partial(rng.randrange, f.order)
        else:
            draw = functools.partial(f.random_raw, rng)
        if self.domain == "full":
            rows = tuple(tuple(draw() for _ in range(n)) for _ in range(n))
        else:
            zero = f.zero
            rows = tuple(tuple(draw() if j >= i else zero for j in range(n)) for i in range(n))
        return Mat._from_raw(f, rows)

    def product(self, x, y):
        """The Jordan product this map is expected to preserve."""
        return jordan_circ(x, y) if self.mode == CIRC else jordan_diamond(x, y)

    def describe(self):
        out = {"n": self.n, "m": self.m, "mode": self.mode, "body": self._kind}
        if self.domain != "full":
            out["domain"] = self.domain
        return out


def twisted(conj, endo, transpose):
    """x |-> conj(w(x)), or conj(w(x)^t) when `transpose`, with w = `endo`
    entrywise (none when None): T w(X) T^-1 for conj = conjugator(T, T^-1)."""

    def apply(x):
        y = x if endo is None else x.apply_endo(endo)
        return conj(y.transpose() if transpose else y)

    return apply


def _is_upper_triangular(x):
    zero = x.field.zero
    return all(
        x.rows[i][j] == zero for i in range(x.nrows) for j in range(min(i, x.ncols))
    )


def _free_positions(n, domain):
    if domain == "upper_triangular":
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [(i, j) for i in range(n) for j in range(n)]


def _domain_size(field, n, domain):
    return field.order ** len(_free_positions(n, domain))


def _table_size(field, n, domain):
    """The number of matrices a map table on this domain lists. Refuses a
    domain that no table may cover before anything is built."""
    if domain not in ("full", "upper_triangular"):
        raise UnsupportedInput(f"unknown domain {domain!r}")
    if not field.is_finite:
        raise UnsupportedInput("map tables require a finite field")
    # a field has at least 2 elements, so either domain of M_n has at least
    # 2^n matrices: past the cap once 2^n > _TABLE_CAP, without forming q^(n*n)
    limit = _TABLE_CAP.bit_length()
    if not 1 <= n < limit:
        raise UnsupportedInput(f"map tables need 1 <= n < {limit}, got {n}")
    size = _domain_size(field, n, domain)
    if size > _TABLE_CAP:
        raise UnsupportedInput(f"domain has {size} matrices; tables are capped at {_TABLE_CAP}")
    return size


def _domain_matrices(field, n, domain):
    """Domain matrices of a finite field in row-major base-q code order."""
    q = field.order
    positions = _free_positions(n, domain)
    zero = field.zero
    for idx in range(q ** len(positions)):
        rows = [[zero] * n for _ in range(n)]
        rem = idx
        for i, j in positions:
            rows[i][j] = rem % q
            rem //= q
        yield Mat._from_raw(field, tuple(tuple(r) for r in rows))


@functools.lru_cache(maxsize=8)
def _product_table(field, n, mode, domain):
    """Domain matrices in domain_iter order, the index of each by its raw
    rows, and their product table.

    table[a][b] is the index of x_a * x_b; both domains are closed under both
    products. The products commute, so each unordered pair is computed once,
    on raw rows. Rows are 16-bit arrays: _PAIR_CAP keeps every domain below
    2^16 matrices.
    """
    circ = mode == CIRC
    if circ and field.char2:
        raise UnsupportedInput("the circ product needs characteristic != 2; use jordan_diamond")
    mats = tuple(_domain_matrices(field, n, domain))
    raws = [x.rows for x in mats]
    raw_index = {r: i for i, r in enumerate(raws)}
    rows = [[0] * len(raws) for _ in raws]
    for a, x in enumerate(raws):
        row = rows[a]
        for b in range(a, len(raws)):
            row[b] = rows[b][a] = raw_index[_jordan_raw(field, x, raws[b], circ)]
    return mats, raw_index, tuple(array("H", r) for r in rows)


def _sampled_pairs(phi, seed, count):
    """`count` seeded random domain pairs, each drawn x first, then y."""
    rng = random.Random(seed)
    for _ in range(count):
        x = phi.sample_domain(rng)
        yield x, phi.sample_domain(rng)


def _first_violation(phi, pairs):
    """Scan `pairs` for the first (x, y) with phi(x * y) != phi(x) * phi(y);
    returns (pairs checked, that pair or None)."""
    checked = 0
    for x, y in pairs:
        checked += 1
        if phi(phi.product(x, y)) != phi.product(phi(x), phi(y)):
            return checked, (x, y)
    return checked, None


@dataclass(frozen=True)
class MultReport:
    """Outcome of a product-preservation check."""

    ok: bool
    pairs_checked: int
    qualifier: str
    witness: tuple = None

    def __bool__(self):
        return self.ok


def check_multiplicative(phi, strategy=None):
    """Does phi(x * y) = phi(x) * phi(y) for the map's product?

    With no strategy the default of `_resolve_strategy` applies: every
    ordered pair of a domain of at most 316 matrices, else 1000 seeded
    samples. Exhaustive checking refuses domains beyond 10^7 pairs. Returns
    the first violating pair.

    The exhaustive scan reads x * y from a product table built once per
    (field, n, mode, domain) and kept in a cache bounded to 8 tables. Images
    are evaluated once each, in the order the pair loop first needs them, and
    identified by value; the product of two images that lie in the domain is
    read from the same table, any other is computed by phi.product, which
    keeps its shape checks.

    Only the upper triangle b >= a of the ordered pairs is visited, and this
    is exact. Both products commute exactly, the table is symmetric and each
    image is evaluated once per scan, so the pair (a, b) passes exactly when
    (b, a) does. A pair with b < a was therefore already checked as (b, a) in
    an earlier row, and the first violating pair in row-major domain_iter
    order always has b >= a. The witness and `pairs_checked` (a*size + b + 1)
    are those of that pair; an accepted scan covers, and reports, all
    size*size ordered pairs.

    Row 0 (x_0 = 0) visits every b, so it evaluates every image. If every
    image then lies in the domain, each later row a is compared whole: the
    ids phi(x_a * x_b) and the ids of phi(x_a) * phi(x_b), for all b, are two
    gathers through the table, the second kept per image id, so a constant
    map builds it once. Their first difference lies at some b >= a, by the
    argument above, so the witness and count are those of the pair-by-pair
    scan. Scans with an image outside the domain (a block embedding, a map
    into M_m with m != n, a triangular map with a non-triangular image) go
    pair by pair throughout.
    """
    strategy = _resolve_strategy(phi, strategy)
    if strategy.kind == "exhaustive":
        size = phi.domain_size
        if size is None:
            raise UnsupportedInput("exhaustive checking needs a finite field")
        if size * size > _PAIR_CAP:
            raise UnsupportedInput(
                f"exhaustive checking would need {size * size} pairs (cap {_PAIR_CAP})"
            )
        mats, index, table = _product_table(phi.field, phi.n, phi.mode, phi.domain)
        # ids 0..size-1 are the domain matrices themselves; other images get
        # the next free id, so two images are equal exactly when their ids
        # are. Every image lies over the map's field, so its raw rows key it.
        ids = dict(index)
        values = list(mats)
        image = [None] * size

        def image_id(a):
            k = image[a]
            if k is None:
                fx = phi(mats[a])
                k = ids.get(fx.rows)
                if k is None:
                    k = ids[fx.rows] = len(values)
                    values.append(fx)
                image[a] = k
            return k

        images_at = None  # set once every image is known and in the domain
        rhs_rows = {}
        for a in range(size):
            row = table[a]
            if images_at is not None:
                # the whole row at once: ids of phi(x_a * x_b) and phi(x_a) * phi(x_b)
                lhs = itemgetter(*row)(image)
                fa = image[a]
                rhs = rhs_rows.get(fa)
                if rhs is None:
                    rhs = rhs_rows[fa] = images_at(table[fa])
                if lhs != rhs:
                    b = next(b for b in range(a, size) if lhs[b] != rhs[b])
                    return MultReport(False, a * size + b + 1, "exhaustive", (mats[a], mats[b]))
                continue
            fa = image_id(a)
            products = {}
            for b in range(a, size):
                lhs = image_id(row[b])
                fb = image_id(b)
                if fa < size and fb < size:
                    ok = lhs == table[fa][fb]
                else:
                    rhs = products.get(fb)
                    if rhs is None:
                        rhs = products[fb] = phi.product(values[fa], values[fb])
                    ok = values[lhs] == rhs
                if not ok:
                    return MultReport(False, a * size + b + 1, "exhaustive", (mats[a], mats[b]))
            if max(image) < size:  # row 0 has evaluated every image
                images_at = itemgetter(*image)
        return MultReport(True, size * size, "exhaustive")
    pairs = _sampled_pairs(phi, strategy.seed, strategy.pair_budget)
    checked, witness = _first_violation(phi, pairs)
    return MultReport(witness is None, checked, strategy.describe(), witness)


def diamond_to_circ(phi):
    """Convert a diamond-preserving map to a circ-preserving one: psi(x) =
    2 phi(x/2); needs characteristic != 2. A conjugation is rewritten
    exactly, every other body is read through phi by one lazy adapter."""
    if phi.mode != DIAMOND:
        raise ValueError("adapter expects a diamond-mode map")
    f = phi.field
    if f.char2:
        raise UnsupportedInput("the diamond adapter needs characteristic != 2 (halving)")
    if phi._kind == "conjugation":
        # 2 T w(x/2)^t T^-1 = T w(x)^t T^-1: endomorphisms fix the prime
        # subfield, so the halving and doubling cancel exactly.
        return JordanMap(f, phi.n, CIRC, ("conjugation", phi._fn), m=phi.m)
    # lazy: the classifier reads psi at a few dozen points, not the whole domain
    half = f.scalar(1) / f.scalar(2)
    return JordanMap(
        f,
        phi.n,
        CIRC,
        ("oracle", lambda x: phi(x.scale(half)).scale(2)),
        m=phi.m,
        domain=phi.domain,
    )
