import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanmaps import (
    BOTH_ZERO,
    Mat,
    RingEndo,
    Scalar,
    UnsupportedInput,
    block_diag,
    is_idempotent,
    is_proportional,
    jordan_circ,
    jordan_diamond,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
    rational_field,
)

F5 = preset_field("F5")
F2 = preset_field("F2")
F9 = preset_field("F9")


def mats(field, n):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=field.order - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: Mat(field, rows))


def test_entry_access():
    m = Mat(F5, [[1, 2], [3, 4]])
    assert m.entry(1, 2) == F5.scalar(2)
    assert m.raw(2, 1) == 3
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
    assert -a == Mat(F5, [[4, 3], [2, 1]])
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


@pytest.mark.parametrize("field", [preset_field("F3"), F9, rational_field(), F2],
                         ids=["F3", "F9", "Q", "F2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jordan_products_match_reference(field, n):
    rng = random.Random(n)

    def draw():
        if field.is_finite:
            return Mat(field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)])
        return Mat(field, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                           for _ in range(n)])

    for _ in range(10):
        x, y = draw(), draw()
        diamond = (x @ y) + (y @ x)
        assert jordan_diamond(x, y) == diamond
        if field.char2:
            with pytest.raises(UnsupportedInput):
                jordan_circ(x, y)
        else:
            assert jordan_circ(x, y) == diamond.scale(Scalar(field, field.half_one))


def test_inverse_roundtrip():
    a = Mat(F5, [[1, 2], [3, 4]])
    assert a @ a.inverse() == mat_identity(F5, 2)
    with pytest.raises(ValueError):
        Mat(F5, [[1, 2], [2, 4]]).inverse()


def test_rank():
    assert Mat(F5, [[1, 2], [2, 4]]).rank() == 1
    assert mat_zero(F5, 3).rank() == 0
    assert mat_identity(F5, 3).rank() == 3


@given(x=mats(F5, 2), y=mats(F5, 2))
def test_transpose_antihomomorphism(x, y):
    assert (x @ y).transpose() == y.transpose() @ x.transpose()
    assert x.transpose().transpose() == x


def test_conjugation_preserves_rank_and_trace():
    t = Mat(F5, [[1, 1], [0, 1]])
    x = Mat(F5, [[2, 0], [1, 3]])
    c = x.conjugate_by(t)
    assert c.rank() == x.rank()
    assert c.trace() == x.trace()
    assert mat_identity(F5, 2).conjugate_by(t) == mat_identity(F5, 2)


def test_apply_endo_respects_products():
    frob = RingEndo(F9, 1)
    a = Mat(F9, [[Scalar(F9, 3), 1], [2, Scalar(F9, 4)]])
    b = Mat(F9, [[1, Scalar(F9, 6)], [Scalar(F9, 3), 0]])
    assert (a @ b).apply_endo(frob) == a.apply_endo(frob) @ b.apply_endo(frob)
    assert (a + b).apply_endo(frob) == a.apply_endo(frob) + b.apply_endo(frob)


def test_is_idempotent():
    assert is_idempotent(mat_zero(F5, 2))
    assert is_idempotent(mat_identity(F5, 2))
    assert is_idempotent(Mat(F5, [[1, 1], [0, 0]]))
    assert not is_idempotent(Mat(F5, [[2, 0], [0, 0]]))


def test_is_proportional():
    e12 = mat_unit(F5, 2, 1, 2)
    c = is_proportional(e12.scale(-2), e12)
    assert isinstance(c, Scalar) and c == F5.scalar(-2)
    assert is_proportional(mat_zero(F5, 2), mat_zero(F5, 2)) is BOTH_ZERO
    assert is_proportional(e12, mat_unit(F5, 2, 2, 1)) is None
    # mixed support can never be a scalar multiple
    assert is_proportional(e12 + mat_unit(F5, 2, 2, 1), e12) is None


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
