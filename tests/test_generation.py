import hashlib
import random

import pytest

from jordanmaps import (
    Certificate,
    Mat,
    UnsupportedInput,
    certify_identity,
    jordan_circ,
    ladder,
    mat_identity,
    mat_unit,
    mat_zero,
    p_sequence,
    preset_field,
    rational_field,
    reach_unit,
    replay,
    spread_units,
)
from jordanmaps.matrices import random_mat
from jordanmaps.serialization import certificate_to_json, dumps

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F7 = preset_field("F7")
F9 = preset_field("F9")

# sha256 of the canonical JSON of the certificates made by `seeded_certificates`
CERTIFICATES_DIGEST = "dbf877054755a200a12f7a50d3e6bb9bb258a22b257885fe6eba6d4474eb9cda"


def seeded_certificates():
    for field in (Q, F5, F7, F9):
        for n in range(2, 7):
            for seed in range(3):
                rng = random.Random(seed)
                x = random_mat(field, n, rng)
                while x.is_zero:
                    x = random_mat(field, n, rng)
                yield certify_identity(x)


def test_p_sequence_values():
    assert [p_sequence(j) for j in range(1, 6)] == [1, 2, 6, 18, 54]


def test_p_sequence_doubling_identity():
    # each term doubles the sum of everything before it
    for j in range(2, 33):
        assert p_sequence(j) == 2 * sum(p_sequence(i) for i in range(1, j))


def units(field, n, entries):
    m = mat_zero(field, n)
    for (i, j), v in entries.items():
        m = m + mat_unit(field, n, i, j, v)
    return m


class TestLadderDisplays:
    """Frozen coefficient matrices at n = 5 over Q (independent of the
    generator code paths that assemble them)."""

    def test_rank_two(self):
        lad = ladder(Q, 5, 2)
        assert lad.a == units(Q, 5, {(1, 1): 1})
        assert lad.b == units(Q, 5, {(1, 2): -4})
        assert lad.c == units(Q, 5, {(2, 1): -1})
        assert lad.d == units(Q, 5, {(1, 1): 1, (2, 2): 1})

    def test_rank_three(self):
        lad = ladder(Q, 5, 3)
        assert lad.a == units(Q, 5, {(1, 1): 1, (2, 2): 1})
        assert lad.b == units(Q, 5, {(2, 2): -1, (1, 3): 4})
        assert lad.c == units(Q, 5, {(2, 2): -1, (3, 1): 1})

    def test_rank_four(self):
        lad = ladder(Q, 5, 4)
        assert lad.a == units(Q, 5, {(1, 1): 1, (2, 2): 1, (2, 1): -2})
        assert lad.b == units(Q, 5, {(1, 4): 4, (2, 3): -4, (2, 4): 8})
        assert lad.c == units(Q, 5, {(3, 2): -1, (4, 1): 1})

    def test_rank_five(self):
        lad = ladder(Q, 5, 5)
        assert lad.a == units(Q, 5, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 1): -2})
        assert lad.b == units(Q, 5, {(3, 3): -1, (1, 5): 4, (2, 4): 4, (2, 5): 8})
        assert lad.c == units(Q, 5, {(3, 3): -1, (5, 1): 1, (4, 2): 1})


@pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=lambda f: f.name())
@pytest.mark.parametrize("n", range(2, 7))
def test_ladder_climb_identity(field, n):
    for r in range(2, n + 1):
        lad = ladder(field, n, r)
        assert jordan_circ(jordan_circ(lad.a, lad.b), lad.c) == lad.d


def test_char3_collapse():
    # 2 * 3^(j-2) vanishes mod 3 for j >= 3, and the identity must survive it
    lad = ladder(F3, 6, 6)
    assert all(p.is_zero for p in lad.p_values[2:])
    assert not lad.p_values[0].is_zero and not lad.p_values[1].is_zero


def test_ladder_guards():
    with pytest.raises(ValueError):
        ladder(F5, 3, 1)
    with pytest.raises(ValueError):
        ladder(F5, 3, 4)
    with pytest.raises(UnsupportedInput):
        ladder(preset_field("F2"), 3, 2)


class TestReach:
    def test_diagonal_entry(self):
        cert = reach_unit(mat_unit(F5, 2, 2, 2, 3))
        # first multiplier rescales: 1/3 = 2 in F_5
        assert cert.steps[0][0] == mat_unit(F5, 2, 2, 2, 2)
        assert len(cert) == 2
        assert cert.final == mat_unit(F5, 2, 2, 2)

    def test_off_diagonal_entry(self):
        cert = reach_unit(Mat(F5, [[0, 3], [0, 0]]))
        assert len(cert) == 4
        assert cert.final == mat_unit(F5, 2, 1, 1)
        current = cert.start
        for y, recorded in cert.steps:
            current = jordan_circ(current, y)
            assert current == recorded

    def test_zero_matrix_rejected(self):
        with pytest.raises(UnsupportedInput):
            reach_unit(mat_zero(F5, 2))


def test_spread_walks_between_units():
    steps = spread_units(F5, 3, 2, 1)
    current = mat_unit(F5, 3, 2, 2)
    for y, recorded in steps:
        current = jordan_circ(current, y)
        assert current == recorded
    assert current == mat_unit(F5, 3, 1, 1)
    assert spread_units(F5, 3, 2, 2) == []


class TestCertify:
    def test_rational_example(self):
        cert = certify_identity(Mat(Q, [[1, 2], [3, 4]]))
        assert cert.final == mat_identity(Q, 2)
        assert len(cert) <= 3 + 6 * (2 - 1)
        assert bool(replay(cert))

    @pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=lambda f: f.name())
    def test_seeded_matrices(self, field):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(3):
                x = Mat(
                    field,
                    [[field.random_raw(rng) for _ in range(n)] for _ in range(n)],
                )
                if x.is_zero:
                    continue
                cert = certify_identity(x)
                assert cert.start == x
                assert len(cert) <= 3 + 6 * (n - 1)
                assert bool(replay(cert))
                # the climb ends with three steps per rank r = 2..n; the
                # first of them multiplies by A_r and lands on A_r
                climb = cert.steps[len(cert.steps) - 3 * (n - 1):]
                for r in range(2, n + 1):
                    a = ladder(field, n, r).a
                    assert climb[3 * (r - 2)] == (a, a)

    def test_certificates_are_frozen(self):
        digest = hashlib.sha256()
        for cert in seeded_certificates():
            digest.update(dumps(certificate_to_json(cert)).encode())
        assert digest.hexdigest() == CERTIFICATES_DIGEST

    def test_zero_rejected(self):
        with pytest.raises(UnsupportedInput):
            certify_identity(mat_zero(F5, 3))

    def test_char2_rejected(self):
        with pytest.raises(UnsupportedInput):
            certify_identity(mat_identity(preset_field("F2"), 2))


class TestReplay:
    def test_empty_certificate_at_identity(self):
        cert = Certificate(start=mat_identity(F5, 2), steps=())
        assert bool(replay(cert))

    def test_empty_certificate_elsewhere(self):
        res = replay(Certificate(start=mat_unit(F5, 2, 1, 1), steps=()))
        assert not res.ok
        assert "identity" in res.reason

    def test_tampered_result_is_located(self):
        cert = certify_identity(Mat(F5, [[1, 2], [3, 4]]))
        steps = list(cert.steps)
        y, res = steps[2]
        steps[2] = (y, res + mat_unit(F5, 2, 1, 1))
        verdict = replay(Certificate(start=cert.start, steps=tuple(steps)))
        assert not verdict.ok
        assert verdict.failed_step == 3

    def test_tampered_multiplier_is_located(self):
        cert = certify_identity(Mat(F5, [[1, 2], [3, 4]]))
        steps = list(cert.steps)
        y, res = steps[0]
        steps[0] = (y + mat_identity(F5, 2), res)
        verdict = replay(Certificate(start=cert.start, steps=tuple(steps)))
        assert not verdict.ok
        assert verdict.failed_step == 1

    def test_non_square_start_is_reported(self):
        start = Mat(F5, [[1, 2, 0], [3, 4, 0]])
        cert = Certificate(start=start, steps=((mat_identity(F5, 2), mat_identity(F5, 2)),))
        verdict = replay(cert)
        assert not verdict.ok
        assert verdict.failed_step == 1
        assert verdict.reason == "multiplier shape/field mismatch"

    def test_wrong_final_value(self):
        cert = reach_unit(Mat(F5, [[0, 3], [0, 0]]))
        # a genuine prefix that stops short of the identity
        verdict = replay(cert)
        assert not verdict.ok
        assert "identity" in verdict.reason
