import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanmaps import (
    Mat,
    RingEndo,
    UnsupportedInput,
    block_diag,
    endo_enumerate,
    galois_field,
    is_idempotent,
    jordan_circ,
    jordan_diamond,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
    rational_field,
)
from jordanmaps.matrices import (
    _raw_draw,
    conjugated_idempotent,
    conjugator,
    mat_diag_idempotent,
    random_invertible,
)

F5 = preset_field("F5")
F2 = preset_field("F2")
F9 = preset_field("F9")
F3 = preset_field("F3")


def mats(field, n):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=field.order - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: Mat(field, rows))


def test_entry_access():
    m = Mat(F5, [[1, 2], [3, 4]])
    assert m.entry(1, 2) == F5.scalar(2)
    assert m.rows[1][0] == 3
    assert m.nrows == 2 and m.ncols == 2


def test_mat_unit():
    e12 = mat_unit(F5, 2, 1, 2)
    assert e12 == Mat(F5, [[0, 1], [0, 0]])
    assert mat_unit(F5, 2, 2, 2, 3) == Mat(F5, [[0, 0], [0, 3]])


def test_arithmetic_mod5():
    a = Mat(F5, [[1, 2], [3, 4]])
    b = Mat(F5, [[4, 3], [2, 1]])
    assert a + b == Mat(F5, [[0, 0], [0, 0]])
    assert a - b == Mat(F5, [[2, 4], [1, 3]])
    assert a @ b == Mat(F5, [[3, 0], [0, 3]])
    assert a.scale(2) == Mat(F5, [[2, 4], [1, 3]])


def test_shape_mismatch():
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2], [3, 4]]) + Mat(F5, [[1]])
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2]]) @ Mat(F5, [[1, 2]])


@given(x=mats(F5, 2), y=mats(F5, 2))
def test_double_circ_is_diamond(x, y):
    assert jordan_circ(x, y).scale(2) == jordan_diamond(x, y)


@given(x=mats(F5, 3))
def test_circ_square_is_square(x):
    assert jordan_circ(x, x) == x @ x


@given(x=mats(F5, 2), y=mats(F5, 2))
def test_products_commute(x, y):
    assert jordan_circ(x, y) == jordan_circ(y, x)
    assert jordan_diamond(x, y) == jordan_diamond(y, x)


def test_circ_needs_odd_characteristic():
    a = mat_identity(F2, 2)
    with pytest.raises(UnsupportedInput):
        jordan_circ(a, a)
    # the diamond product stays available
    assert jordan_diamond(a, a) == mat_zero(F2, 2)


KERNEL_FIELDS = {
    "F3": preset_field("F3"),
    "F9": F9,
    "Q": rational_field(),
    "F2": F2,
    "F27": galois_field(3, 3),
    "F4": galois_field(2, 2),
}


def _reference_ops(field):
    """(add, mul) on raw values, written apart from the kernels: plain
    Fraction sums, ints mod p, or the base-p digit add and polynomial mul."""
    if field.kind == "rational":
        return (lambda a, b: a + b), (lambda a, b: a * b)
    if field.kind == "prime":
        p = field.p
        return (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
    p, k = field.p, field.k

    def add(a, b):
        return sum((a // p**i + b // p**i) % p * p**i for i in range(k))

    return add, field._poly_mul


def _row_echelon(field, rows, ncols):
    """Gauss-Jordan elimination on field arithmetic over the first `ncols`
    columns, pivots scaled to 1; returns the rank. The reference for rank
    and inverse: the same pivoting as the kernels, one `Field` call per
    entry update."""
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


def _reference_matmul(field, a, b):
    add, mul = _reference_ops(field)
    n = len(b)
    return tuple(
        tuple(
            reduce(add, (mul(row[t], b[t][j]) for t in range(n)), field.zero)
            for j in range(len(b[0]))
        )
        for row in a
    )


def _reference_inverse(field, x):
    """Inverse by the generic field-arithmetic elimination, or None."""
    n = x.nrows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(x.rows)]
    if field.kind == "rational":
        aug = [[Fraction(v) for v in row] for row in aug]
    if _row_echelon(field, aug, n) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def _canonical(field, m):
    if field.kind == "rational":
        return all(type(v) is Fraction for row in m.rows for v in row)
    return all(type(v) is int and 0 <= v < field.order for row in m.rows for v in row)


def _kernel_mats(field, n, shape="dense"):
    """Rows of an n x n matrix: every entry drawn ("dense"), about three in
    four entries 0 ("sparse"), or one drawn entry at a drawn position, so a
    scaled matrix unit ("unit")."""
    if field.is_finite:
        entry = st.integers(min_value=0, max_value=field.order - 1)
    else:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    if shape == "unit":
        return st.builds(
            lambda i, j, v: [[v if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)],
            st.integers(0, n - 1), st.integers(0, n - 1), entry,
        )
    if shape == "sparse":
        entry = st.tuples(st.integers(0, 3), entry).map(lambda t: t[1] if t[0] == 0 else 0)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@pytest.mark.parametrize("field", list(KERNEL_FIELDS.values()), ids=list(KERNEL_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=15)
@given(data=st.data())
def test_jordan_products_match_reference(field, n, data):
    """Matmul, both Jordan products, rank and inverse against references
    on field arithmetic; singular inputs raise and entries stay canonical.
    Each operand is dense, sparse or a matrix unit, so the Jordan kernel
    meets all-zero rows of [x | y], all-zero columns of [y ; x] and
    all-zero results, and Galois sums that cancel."""
    shapes = st.sampled_from(["dense", "sparse", "unit"])
    x = Mat(field, data.draw(_kernel_mats(field, n, data.draw(shapes))))
    y = data.draw(_kernel_mats(field, n, data.draw(shapes)))
    if n > 1 and data.draw(st.booleans()):
        # a repeated row makes y singular
        y[-1] = y[0]
    y = Mat(field, y)
    add, mul = _reference_ops(field)
    xy = _reference_matmul(field, x.rows, y.rows)
    yx = _reference_matmul(field, y.rows, x.rows)
    diamond = tuple(tuple(map(add, r, s)) for r, s in zip(xy, yx))
    assert (x @ y).rows == xy
    assert jordan_diamond(x, y).rows == diamond
    if field.char2:
        with pytest.raises(UnsupportedInput):
            jordan_circ(x, y)
    else:
        half = field.half_one
        circ = jordan_circ(x, y)
        assert circ.rows == tuple(tuple(mul(v, half) for v in row) for row in diamond)
        assert _canonical(field, circ)
    assert _canonical(field, x @ y) and _canonical(field, jordan_diamond(x, y))
    for z in (x, y):
        rows = [list(r) for r in z.rows]
        assert z.rank() == _row_echelon(field, rows, n)
        expected = _reference_inverse(field, z)
        if expected is None:
            with pytest.raises(ValueError, match="^singular matrix$"):
                z.inverse()
        else:
            inv = z.inverse()
            assert inv.rows == expected and _canonical(field, inv)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("field", list(KERNEL_FIELDS.values()), ids=list(KERNEL_FIELDS))
def test_mat_unit_every_position(field, n):
    """E_ij scaled by an int, a `Scalar` and a string at every position
    equals the matrix written out by hand, with canonical entries (Q's zeros
    are Fractions); out-of-range indices and foreign scalars are refused."""
    values = [1, 2, field.scalar(2), "2", "-1"]
    if field.kind == "rational":
        values += ["3/2", Fraction(-5, 7)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for value in values:
                unit = mat_unit(field, n, i, j, value)
                expected = [[0] * n for _ in range(n)]
                expected[i - 1][j - 1] = value
                assert unit == Mat(field, expected) and _canonical(field, unit)
    for i, j in [(0, 1), (1, 0), (n + 1, 1), (1, n + 1), (0, n + 1)]:
        with pytest.raises(ValueError, match=rf"^unit index \({i},{j}\) out of range for n={n}$"):
            mat_unit(field, n, i, j)
    other = F5 if field.kind != "prime" else F9
    with pytest.raises(ValueError, match=f"^scalar from {other.name()} used in {field.name()}$"):
        mat_unit(field, n, 1, 1, other.scalar(1))


CONJUGATOR_FIELDS = {**KERNEL_FIELDS, "F5": F5}


@pytest.mark.parametrize("field", list(CONJUGATOR_FIELDS.values()), ids=list(CONJUGATOR_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=10)
@given(data=st.data())
def test_conjugator_matches_products(field, n, data):
    """The prepared kernel x -> a @ w(x)^t @ b equals plain products of a,
    the entrywise image w(x) (transposed or not) and b, for any a and b
    (singular ones too), every endomorphism w of every kernel field and both
    orientations. Each w is a ring endomorphism, and `conjugated_idempotent`
    is a conjugation of every diagonal idempotent."""
    rows = _kernel_mats(field, n)
    a, b = Mat(field, data.draw(rows)), Mat(field, data.draw(rows))
    x, y = Mat(field, data.draw(rows)), Mat(field, data.draw(rows))
    one = mat_identity(field, n)
    for endo in endo_enumerate(field):
        w = conjugator(one, one, endo)
        assert w(x @ y) == w(x) @ w(y) and w(x + y) == w(x) + w(y)
        wx = tuple(tuple(endo.apply_raw(v) for v in row) for row in x.rows)
        for transpose in (False, True):
            out = conjugator(a, b, endo, transpose)(x)
            expected = a @ Mat._from_raw(field, tuple(zip(*wx)) if transpose else wx) @ b
            assert out.rows == expected.rows and _canonical(field, out)
    conj = conjugator(a, b)
    for lo in range(n + 1):
        for hi in range(lo, n + 1):
            expected = conj(mat_diag_idempotent(field, n, lo, hi))
            assert conjugated_idempotent(a, b, lo, hi) == expected


@pytest.mark.parametrize(
    "field",
    [preset_field(name) for name in ("F3", "F5", "F7", "F9", "p:101", "Q")] + [galois_field(2, 4)],
    ids=["F3", "F5", "F7", "F9", "F101", "Q", "F16"],
)
def test_draws_replay_randrange(field):
    """`_raw_draw` over F_q yields what rng.randrange(q) yields (q = 16 has a
    tight bit length), and over Q what Fraction(randint(-20, 20),
    randint(1, 12)) yields; the generator is left in the same state."""
    rng, twin = random.Random(7), random.Random(7)
    draw = _raw_draw(field, rng)
    if field.is_finite:
        expected = [twin.randrange(field.order) for _ in range(500)]
    else:
        expected = [Fraction(twin.randint(-20, 20), twin.randint(1, 12)) for _ in range(500)]
    assert [draw() for _ in range(500)] == expected
    assert rng.random() == twin.random()


def test_random_invertible_draw_order():
    """The helper draws n*n entries per try, row by row, and returns the first
    invertible draw with its inverse."""
    for field in (F2, preset_field("F3"), F9, rational_field()):
        rng, twin = random.Random(4), random.Random(4)
        raw = _raw_draw(field, twin)
        for _ in range(5):
            m, m_inv = random_invertible(field, 3, rng)
            while True:
                draw = Mat._from_raw(
                    field, tuple(tuple(raw() for _ in range(3)) for _ in range(3))
                )
                if _row_echelon(field, [list(r) for r in draw.rows], 3) == 3:
                    break
            assert m == draw
            assert m @ m_inv == mat_identity(field, 3)
        assert rng.random() == twin.random()


def test_inverse_roundtrip():
    a = Mat(F5, [[1, 2], [3, 4]])
    assert a @ a.inverse() == mat_identity(F5, 2)
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2], [2, 4]]).inverse()


def test_rank():
    assert Mat(F5, [[1, 2], [2, 4]]).rank() == 1
    assert mat_zero(F5, 3).rank() == 0
    assert mat_identity(F5, 3).rank() == 3


def test_conjugation_preserves_rank_and_trace():
    t = Mat(F5, [[1, 1], [0, 1]])
    x = Mat(F5, [[2, 0], [1, 3]])
    t_inv = t.inverse()
    conj = conjugator(t_inv, t)
    c = conj(x)
    assert c.rank() == x.rank()
    assert c.trace() == x.trace()
    assert conj(mat_identity(F5, 2)) == mat_identity(F5, 2)
    with pytest.raises(ValueError, match="different fields"):
        conjugator(t_inv, t, RingEndo(F9, 1))


def test_is_idempotent():
    assert is_idempotent(mat_zero(F5, 2))
    assert is_idempotent(mat_identity(F5, 2))
    assert is_idempotent(Mat(F5, [[1, 1], [0, 0]]))
    assert not is_idempotent(Mat(F5, [[2, 0], [0, 0]]))


def test_block_diag():
    a = Mat(F5, [[1, 2], [3, 4]])
    b = Mat(F5, [[2]])
    c = block_diag(a, b)
    assert (c.nrows, c.ncols) == (3, 3)
    assert c == Mat(F5, [[1, 2, 0], [3, 4, 0], [0, 0, 2]])
    assert c.rank() == a.rank() + b.rank()


def test_support():
    m = Mat(F5, [[0, 3], [0, 0]])
    assert m.support() == {(1, 2)}
    assert mat_zero(F5, 2).support() == set()


def test_fields_do_not_mix():
    with pytest.raises(ValueError):
        Mat(F5, [[1, 0], [0, 1]]) + mat_identity(preset_field("F3"), 2)


@pytest.mark.parametrize("make, detail", [
    (lambda: Mat(F5, []), "matrices must be nonempty"),
    (lambda: Mat(F5, [[]]), "matrices must be nonempty"),
    (lambda: Mat(F5, [[1, 2], [3]]), "ragged rows"),
    (lambda: Mat(F5, [[1]]) @ Mat(F3, [[1]]), "matrices over different fields"),
    (lambda: block_diag(Mat(F5, [[1]]), Mat(F3, [[1]])), "matrices over different fields"),
], ids=["no_rows", "empty_row", "ragged", "matmul_across_fields", "block_diag_across_fields"])
def test_malformed_or_mixed_matrices_are_refused(make, detail):
    with pytest.raises(ValueError, match=f"^{detail}$"):
        make()
