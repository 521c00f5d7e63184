from itertools import product

import pytest

from jordanmaps import (
    InvariantViolation,
    Mat,
    is_idempotent,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
    simultaneous_diagonalizer,
)

F3 = preset_field("F3")
F5 = preset_field("F5")


def all_2x2(field):
    vals = list(field.elements())
    for a, b, c, d in product(vals, repeat=4):
        yield Mat._from_raw(field, ((a, b), (c, d)))


IDEMPOTENTS_F3 = [m for m in all_2x2(F3) if is_idempotent(m)]


def test_idempotent_census():
    # 0, I, and 12 rank-one idempotents
    assert len(IDEMPOTENTS_F3) == 14
    ranks = sorted(m.rank() for m in IDEMPOTENTS_F3)
    assert ranks == [0] + [1] * 12 + [2]


class TestIdempotentFamily:
    """The diagonalizer refuses every list that is not n rank-one
    idempotents of size n x n over one field, orthogonal and summing to I."""

    @staticmethod
    def refused(members):
        with pytest.raises(InvariantViolation) as exc:
            simultaneous_diagonalizer(members)
        assert exc.value.stage == "diagonalizer"

    def test_empty(self):
        self.refused([])

    def test_wrong_count(self):
        self.refused([mat_unit(F5, 3, 1, 1), mat_unit(F5, 3, 2, 2)])

    def test_wrong_shape(self):
        self.refused([mat_unit(F5, 2, 1, 1), Mat(F5, [[0, 0, 0], [0, 1, 0]])])

    def test_mixed_fields(self):
        self.refused([mat_unit(F3, 2, 1, 1), mat_unit(F5, 2, 2, 2)])

    def test_not_orthogonal(self):
        self.refused([Mat(F5, [[1, 1], [0, 0]]), Mat(F5, [[1, 0], [0, 0]])])

    def test_wrong_rank(self):
        self.refused([mat_identity(F5, 2), mat_zero(F5, 2)])

    def test_must_sum_to_identity(self):
        self.refused([mat_unit(F5, 2, 1, 1), mat_unit(F5, 2, 1, 1)])


class TestDiagonalizer:
    def test_upper_triangular_family(self):
        p = Mat(F3, [[1, 1], [0, 0]])
        fam = [p, mat_identity(F3, 2) - p]
        t = simultaneous_diagonalizer(fam)
        assert t == Mat(F3, [[1, -1], [0, 1]])
        t_inv = t.inverse()
        for j, q in enumerate(fam, start=1):
            assert t_inv @ q @ t == mat_unit(F3, 2, j, j)

    def test_permuted_units(self):
        fam = [mat_unit(F5, 2, 2, 2), mat_unit(F5, 2, 1, 1)]
        t = simultaneous_diagonalizer(fam)
        assert t == Mat(F5, [[0, 1], [1, 0]])

    def test_conjugated_units(self):
        s = Mat(F5, [[1, 2], [1, 3]])
        s_inv = s.inverse()
        fam = [s @ mat_unit(F5, 3 - 1, j, j) @ s_inv for j in (1, 2)]
        t = simultaneous_diagonalizer(fam)
        t_inv = t.inverse()
        for j, q in enumerate(fam, start=1):
            assert t_inv @ q @ t == mat_unit(F5, 2, j, j)

    def test_rejects_broken_family(self):
        with pytest.raises(InvariantViolation):
            simultaneous_diagonalizer([mat_unit(F5, 2, 1, 1), mat_unit(F5, 2, 1, 1)])
