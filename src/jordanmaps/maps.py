"""Map containers and product-preservation checking.

A JordanMap is a function M_n(F) -> M_m(F) tagged with the product it is
meant to preserve: mode "circ" for x o y = (xy + yx)/2, mode "diamond" for
x <> y = xy + yx (the char-2-safe variant). A body is one function, of a kind:

  * table        -- explicit graph over a small finite domain: one image
                    id per domain matrix, into the distinct images,
  * conjugation  -- X |-> T w(X) T^-1 or T w(X)^t T^-1 with w a ring
                    endomorphism applied entrywise, one prepared
                    `matrices.conjugator` with the twist folded in,
  * constant / zero,
  * oracle       -- arbitrary callable, whose outputs are checked.

Verification budgets are carried by Strategy values: a sampled strategy is
(count, seed) and nothing else, so its description "sampled:COUNT:SEED"
replays it and every probabilistic answer is reproducible from it.
"""

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from operator import add, itemgetter, mul

from .errors import UnsupportedInput
from .exact_fields import Scalar
from .matrices import (
    Mat,
    _matmul_raw,
    _raw_draw,
    conjugator,
    jordan_circ,
    jordan_diamond,
    mat_unit,
    mat_zero,
    random_mat,
)

CIRC = "circ"
DIAMOND = "diamond"

_TABLE_CAP = 10_000
_PAIR_CAP = 10_000_000


@dataclass(frozen=True)
class Strategy:
    """How much checking to do: every pair, or the seeded sample (count, seed).

    A sampled strategy is its whole budget: the pre-check draws `count`
    pairs and a form check `count` points, each from `seed`, and
    `_parse_strategy(describe())` gives the strategy back.
    """

    kind: str
    count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sampled"):
            raise UnsupportedInput(f"unknown strategy kind {self.kind!r}")
        if self.kind == "sampled" and self.count < 1:
            raise UnsupportedInput("sampled strategy needs count >= 1")

    @staticmethod
    def exhaustive():
        return Strategy(kind="exhaustive")

    @staticmethod
    def sampled(count=1000, seed=0):
        return Strategy(kind="sampled", count=count, seed=seed)

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
        except ValueError:
            pass
        else:
            return Strategy.sampled(count=count, seed=seed)
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
    `body` is (kind, fn), a table's followed by its `_tabled` ids and images:
    a call validates its input, returns fn(x), and checks the output only
    for an oracle, the one kind the map did not build.
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
        self._kind, self._fn, *self._table = body

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, field, n, entries, mode=CIRC, domain="full"):
        """Explicit map given as (x, fx) pairs covering the whole domain; its
        body is built by `_tabled`, as `map_from_json` builds its maps."""
        def rows(x):
            if not isinstance(x, Mat):
                raise UnsupportedInput("table entries must be matrix pairs")
            return x.rows if x.field is field else None

        items = entries.items() if isinstance(entries, dict) else entries
        return cls._tabled(field, n, ((rows(x), rows(fx)) for x, fx in items), mode, domain)

    @classmethod
    def _tabled(cls, field, n, pairs, mode, domain):
        """The table map of (key rows, value rows) pairs, refused in pair
        order; None stands for a matrix over another field. Its ids give the
        k-th `_domain` matrix's image by its index among the distinct images."""
        index = _domain(field, n, domain)[1]
        ids, distinct, m = [None] * len(index), {}, None
        for key, value in pairs:
            k = index.get(key)
            if k is None:
                raise UnsupportedInput("table key outside the declared domain")
            if value is None or len(value) != len(value[0]):
                raise UnsupportedInput("table value must be a square matrix over the same field")
            if m is not None and len(value) != m:
                raise UnsupportedInput("table values have inconsistent sizes")
            if ids[k] is not None:
                raise UnsupportedInput("duplicate table key")
            ids[k], m = distinct.setdefault(value, len(distinct)), len(value)
        if None in ids:
            raise UnsupportedInput(
                f"table covers {len(index) - ids.count(None)} of {len(index)} domain matrices")
        mats = [Mat._from_raw(field, rows) for rows in distinct]
        body = ("table", lambda x: mats[ids[index[x.rows]]], ids, list(distinct))
        return cls(field, n, mode, body, m=m, domain=domain)

    @classmethod
    def conjugation(cls, t, endo=None, transpose=False, mode=CIRC):
        """X |-> T w(X) T^-1, optionally transposing first."""
        if not t.is_square:
            raise UnsupportedInput("conjugating matrix must be square")
        t_inv = t.inverse()
        field, n = t.field, t.nrows
        if endo is not None and endo.field is not field:
            raise UnsupportedInput("endomorphism field does not match the matrix field")
        return cls(field, n, mode, ("conjugation", conjugator(t, t_inv, endo, transpose)))

    @classmethod
    def constant(cls, field, n, value, mode=CIRC):
        if value.field is not field or not value.is_square:
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
        if not isinstance(x, Mat) or x.field is not self.field:
            raise UnsupportedInput("input must be a matrix over the map's field")
        if x.nrows != self.n or x.ncols != self.n:
            raise UnsupportedInput(f"input must be {self.n}x{self.n}")
        if self.domain == "upper_triangular" and not _is_upper_triangular(x):
            raise UnsupportedInput("input outside the upper-triangular domain")
        out = self._fn(x)
        if self._kind == "oracle" and (not isinstance(out, Mat) or out.field is not self.field
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
        """All domain matrices in a fixed row-major order (finite fields, at
        most 10^4 matrices). They are built once per domain and cached, so
        every call yields the same objects."""
        if not self.field.is_finite:
            raise UnsupportedInput("cannot enumerate matrices over an infinite field")
        return iter(_domain(self.field, self.n, self.domain)[0])

    def sample_domain(self, rng):
        """A seeded random domain matrix: one `_raw_draw` value per free
        position, row by row, so on the full domain it is `random_mat`."""
        f, n = self.field, self.n
        if self.domain == "full":
            return random_mat(f, n, rng)
        draw, zero = _raw_draw(f, rng), f.zero
        return Mat._from_raw(
            f, tuple(tuple(draw() if j >= i else zero for j in range(n)) for i in range(n))
        )

    def product(self, x, y):
        """The Jordan product this map is expected to preserve."""
        return jordan_circ(x, y) if self.mode == CIRC else jordan_diamond(x, y)


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


@functools.lru_cache(maxsize=8)
def _domain(field, n, domain):
    """The domain matrices in code order, and the index of each by its raw
    rows: the k-th matrix is the one whose code, the sum of raw entry * q^k
    over the k-th free position, is k, so the first free position varies
    fastest. They are the identity map's `_domain_sums`, the one place that
    order is written. Refuses what `_table_size` refuses first, so it never
    holds over _TABLE_CAP."""
    _table_size(field, n, domain)
    sums = _domain_sums(field, n, domain, lambda x: x.rows)
    mats = tuple(Mat._from_raw(field, rows) for rows in sums)
    return mats, {x.rows: k for k, x in enumerate(mats)}


def _domain_sums(field, n, domain, value):
    """The raw rows `value(x)` of an additive map at each domain matrix x, in
    code order, lazily; `_domain` is this order for the identity map. `value`
    is called at 0 and at d E_ij, for each free position (i, j) and raw
    d != 0, alone: a matrix whose most significant nonzero code digit is d,
    at free position (i, j), is d E_ij plus a matrix earlier in the order,
    so its value is one raw add."""
    adds = itertools.repeat(field.add)
    out = [value(mat_zero(field, n))]
    yield out[0]
    for i, j in _free_positions(n, domain):
        head = len(out)
        for d in range(1, field.order):
            unit = value(mat_unit(field, n, i + 1, j + 1, Scalar(field, d)))
            for rows in out[:head]:
                rows = tuple(map(tuple, map(map, adds, rows, unit)))
                out.append(rows)
                yield rows


def _product_codes(field, mode, raws, points, positions):
    """The code kernel of Jordan products, shared by `_product_table` and the
    exhaustive scan: codes(a) iterates, for b = a, a + 1, ..., the code of
    x_a * x_b, the product of `mode` of two square raw matrices over the
    finite field, where x_a = raws[points[a]]: each of `raws` is read once,
    however many points share it. A matrix's code is the sum of entry * q^k
    over `positions`, the k-th free position; entries off them must be 0.

    The distinct vectors among the rows and columns of `raws` get ids in
    order of first appearance, and dot products are tabled between those
    alone: dots(v) lists the dot product of vector v with every vector by id,
    scaled(v) the same times q. Each is one `_matmul_raw` row, built when
    codes(a) first needs it, so one loop serves F_p, F_{p^k} and the diamond
    product over F_2. Each free position (i, j), the k-th, has a cell table
    cell[u * q + v] = q^k * h(u + v), with h = 1/2 for circ and 1 for
    diamond: entry (i, j) of x_a * x_b is h(R_i(a).C_j(b) + R_i(b).C_j(a)),
    so its code term is cell[scaled(R_i(a))[C_j(b)] + dots(C_j(a))[R_i(b)]].
    The term is dropped when no row i meets the support of any column j, as
    every dot product in it is then 0 and so is cell[0].
    """
    q, fadd, fmul = field.order, field.add, field.mul
    h = field.half_one if mode == CIRC else field.one
    ids = {}
    dims = range(len(raws[0]))
    row_ids = [[ids.setdefault(x[i], len(ids)) for x in raws] for i in dims]
    columns = [tuple(zip(*x)) for x in raws]
    col_ids = [[ids.setdefault(x[j], len(ids)) for x in columns] for j in dims]
    row_ids = [list(map(r.__getitem__, points)) for r in row_ids]
    col_ids = [list(map(c.__getitem__, points)) for c in col_ids]
    vectors = list(ids)
    grid = tuple(zip(*vectors))  # every vector as a column
    dots = functools.cache(lambda v: _matmul_raw(field, (vectors[v],), grid)[0])
    scaled = functools.cache(lambda v: [d * q for d in dots(v)])
    halves = [fmul(h, fadd(u, v)) for u in range(q) for v in range(q)]
    reach = [{k for v in set(vs) for k, e in enumerate(vectors[v]) if e}
             for vs in row_ids + col_ids]
    terms = [
        (row_ids[i], col_ids[j], [q ** k * w for w in halves])
        for k, (i, j) in enumerate(positions) if reach[i] & reach[len(dims) + j]
    ]

    def codes(a):
        out = None
        for rc, cc, cell in terms:
            u = map(scaled(rc[a]).__getitem__, itertools.islice(cc, a, None))
            v = map(dots(cc[a]).__getitem__, itertools.islice(rc, a, None))
            part = map(cell.__getitem__, map(add, u, v))
            out = part if out is None else map(add, out, part)
        return itertools.repeat(0, len(points) - a) if out is None else out

    return codes


@functools.lru_cache(maxsize=8)
def _product_table(field, n, mode, domain):
    """The domain matrices and the index of each by its raw rows, both as
    `_domain` gives them, and their product table.

    table[a][b] is the index of x_a * x_b; both domains are closed under both
    products. No product is formed as a matrix: the index of a domain matrix
    is its code over the free positions in domain_iter order, and the shared
    kernel `_product_codes` computes the codes of products. Positions off an
    upper-triangular domain are 0 in every product and take no part.

    The products commute, so row a is computed for b >= a and copied from
    column a of the earlier rows for b < a. Rows are 16-bit arrays: `_domain`
    keeps every domain below 2^16 matrices.
    """
    if mode == CIRC and field.char2:
        raise UnsupportedInput("the circ product needs characteristic != 2; use jordan_diamond")
    mats, raw_index = _domain(field, n, domain)
    codes = _product_codes(
        field, mode, [x.rows for x in mats], range(len(mats)), _free_positions(n, domain))
    rows = []
    for a in range(len(mats)):
        row = array("H", map(itemgetter(a), rows))
        row.extend(codes(a))
        rows.append(row)
    return mats, raw_index, tuple(rows)


def _sampled_pairs(phi, seed, count):
    """`count` seeded random domain pairs, each drawn x first, then y."""
    rng = random.Random(seed)
    for _ in range(count):
        x = phi.sample_domain(rng)
        yield x, phi.sample_domain(rng)


def _first_failure(items, fails):
    """The one failure scan: the first of `items` for which `fails` holds,
    or None, and how many items were checked. It draws lazily and stops at
    that item, so a generator of items is consumed no further."""
    checked = 0
    for item in items:
        checked += 1
        if fails(item):
            return item, checked
    return None, checked


def _breaks_law(phi):
    """The pair law of phi's product, as a test: does the pair (x, y) have
    phi(x * y) != phi(x) * phi(y)?"""
    product = phi.product
    return lambda pair: phi(product(*pair)) != product(phi(pair[0]), phi(pair[1]))


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
    (field, n, mode, domain) and kept in a cache bounded to 8 tables, over
    the domain matrices and index of `_domain`. It reads image ids, one per
    domain matrix, into the distinct images: a table body holds them; any
    other body is evaluated once at every point, in domain order, before
    any pair is compared, and its images are interned by raw rows.

    Only the upper triangle b >= a of the ordered pairs is visited, and this
    is exact: both products commute, the table is symmetric and each point
    has one image id, so (a, b) passes exactly when (b, a) does, and the
    first violating pair in row-major domain_iter order has b >= a. The witness and `pairs_checked`
    (a*size + b + 1) are those of that pair; an accepted scan covers, and
    reports, all size*size ordered pairs.

    Each row a is compared whole; its first difference is the witness:

      * if every image lies in the domain, the ids of phi(x_a * x_b) and of
        phi(x_a) * phi(x_b) are two gathers through the table;
      * otherwise (a block embedding, a map into M_m with m != n, a
        triangular map with a non-triangular image) each distinct image is
        coded over all m*m positions in base q, and the codes of
        phi(x_a * x_b) are compared with those the kernel `_product_codes`
        gives for phi(x_a) * phi(x_b). A product that is no image matches
        no image code. The kernel is handed the distinct images and the
        points' image ids, so it reads each image's rows and columns once,
        and it tables only the dot products a scan row needs, so an early
        rejection builds few.

    Either way the right-hand side of a row is kept under the row's image
    id: it depends on phi(x_a) alone, and a row that passed whole holds the
    right-hand side of every later row with the same image, so a constant
    map builds it once.
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
        distinct = {}  # images by raw rows, each to its id
        ids, images = phi._table or (
            [distinct.setdefault(phi(x).rows, len(distinct)) for x in mats], list(distinct))
        # every image lies over the map's field, so its raw rows give its
        # domain index, or None off the domain
        gather = itemgetter(*ids)
        image = gather([index.get(rows) for rows in images])
        # every row whole: by ids if every image is a domain matrix, else by codes
        if None not in image:
            keys, at = image, itemgetter(*image)

            def rhs_row(a, lhs):
                return at(table[image[a]])

        else:
            q, positions = phi.field.order, _free_positions(phi.m, "full")
            weights = [q ** k for k in range(len(positions))]
            keys = gather([sum(map(mul, itertools.chain(*rows), weights)) for rows in images])
            codes = _product_codes(phi.field, phi.mode, images, ids, positions)

            def rhs_row(a, lhs):
                # the pairs b < a passed as (b, a) in an earlier row
                return lhs[:a] + tuple(codes(a))

        rhs_rows = {}  # image id -> the right-hand side of its rows
        for a in range(size):
            lhs = itemgetter(*table[a])(keys)
            rhs = rhs_rows.get(ids[a])
            if rhs is None:
                rhs = rhs_rows[ids[a]] = rhs_row(a, lhs)
            if lhs != rhs:
                b = next(b for b in range(a, size) if lhs[b] != rhs[b])
                return MultReport(False, a * size + b + 1, "exhaustive", (mats[a], mats[b]))
        return MultReport(True, size * size, "exhaustive")
    pairs = _sampled_pairs(phi, strategy.seed, strategy.count)
    witness, checked = _first_failure(pairs, _breaks_law(phi))
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
    half = Scalar(f, f.half_one)
    return JordanMap(
        f,
        phi.n,
        CIRC,
        ("oracle", lambda x: phi(x.scale(half)).scale(2)),
        m=phi.m,
        domain=phi.domain,
    )
