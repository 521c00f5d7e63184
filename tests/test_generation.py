import hashlib
import random

import pytest

from jordanmaps import (
    Certificate,
    Mat,
    ReplayResult,
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
from jordanmaps import generation
from jordanmaps.matrices import random_mat
from jordanmaps.serialization import certificate_to_json, dumps

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F7 = preset_field("F7")
F9 = preset_field("F9")

# sha256 of the canonical JSON of the certificates made by `seeded_certificates`
CERTIFICATES_DIGEST = "dbf877054755a200a12f7a50d3e6bb9bb258a22b257885fe6eba6d4474eb9cda"


def some_matrix(field, n, seed=0):
    rng = random.Random(seed)
    x = random_mat(field, n, rng)
    while x.is_zero:
        x = random_mat(field, n, rng)
    return x


def seeded_certificates():
    for field in (Q, F5, F7, F9):
        for n in range(2, 7):
            for seed in range(3):
                yield certify_identity(some_matrix(field, n, seed))


def test_p_sequence_values():
    assert [p_sequence(j) for j in range(1, 6)] == [1, 2, 6, 18, 54]


@pytest.mark.parametrize("j", [0, -1])
def test_p_sequence_is_indexed_from_1(j):
    with pytest.raises(ValueError, match="indexed from 1"):
        p_sequence(j)


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

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            reach_unit(Mat(F5, [[0, 3, 1]]))


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
                x = random_mat(field, n, rng)
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

    def test_reach_landing_off_index_one(self):
        # the only off-diagonal pivot (2, 3) avoids index 1: the reach lands
        # at E_22 and the re-anchoring carries it to E_11
        cert = certify_identity(mat_unit(F5, 3, 2, 3))
        assert len(cert) == 13
        results = cert.results()
        assert results[3] == mat_unit(F5, 3, 2, 2)
        assert results[6] == mat_unit(F5, 3, 1, 1)
        assert bool(replay(cert))

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


class TestClimbCache:
    @pytest.mark.parametrize("field", [Q, F5, F9], ids=lambda f: f.name())
    def test_cold_and_warm_certificates_agree(self, field):
        for n in range(2, 7):
            x = some_matrix(field, n)
            generation._climb.cache_clear()
            cold = certificate_to_json(certify_identity(x))
            assert certificate_to_json(certify_identity(x)) == cold

    def test_certificates_share_the_climb(self):
        n = 5
        a = certify_identity(some_matrix(F7, n, seed=1))
        b = certify_identity(some_matrix(F7, n, seed=2))
        climb = 3 * (n - 1)
        for (ya, ra), (yb, rb) in zip(a.steps[-climb:], b.steps[-climb:]):
            assert ya is yb and ra is rb

    def test_only_the_reach_is_computed_when_warm(self, monkeypatch):
        calls = []

        def counted(x, y):
            calls.append(1)
            return jordan_circ(x, y)

        monkeypatch.setattr(generation, "jordan_circ", counted)
        x = some_matrix(F5, 6)
        generation._climb.cache_clear()
        certify_identity(x)
        cold = len(calls)
        calls.clear()
        certify_identity(x)
        assert len(calls) <= 7
        assert cold == len(calls) + 3 * (6 - 1)

    def test_cache_is_bounded(self):
        for field in (Q, F3, F5, F7, F9):
            for n in range(1, 9):
                certify_identity(mat_identity(field, n))
        assert generation._climb.cache_info().currsize <= 32


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

    @pytest.mark.parametrize("field", [F5, Q, F9], ids=["F5", "Q", "F9"])
    def test_tampered_zero_row_is_located(self, field):
        # a climb row that is zero in the current matrix and the multiplier
        # is zero in their product, and the kernel computes none of its
        # entries; a nonzero recorded there still fails that step
        n = 4
        cert = certify_identity(random_mat(field, n, random.Random(29)))
        climb = len(cert) - 3 * (n - 1)
        tampered = 0
        for t in range(climb, len(cert)):
            current, (y, res) = cert.steps[t - 1][1], cert.steps[t]
            for i in range(n):
                if any(current.rows[i]) or any(y.rows[i]):
                    continue
                steps = list(cert.steps)
                steps[t] = (y, res + mat_unit(field, n, i + 1, n - i))
                verdict = replay(Certificate(start=cert.start, steps=tuple(steps)))
                assert (verdict.ok, verdict.failed_step, verdict.reason) == (
                    False, t + 1, "recorded result differs from recomputation")
                tampered += 1
        assert tampered == 16

    def test_forged_zero_intermediate_is_reported(self):
        # E_11 o E_22 = 0 is recorded truly, but a chain to I may not pass 0
        zero = mat_zero(F5, 2)
        steps = ((mat_unit(F5, 2, 2, 2), zero), (mat_identity(F5, 2), zero))
        verdict = replay(Certificate(start=mat_unit(F5, 2, 1, 1), steps=steps))
        assert verdict == ReplayResult(False, 1, "intermediate result is zero")

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

    @pytest.mark.parametrize("multiplier", [
        mat_identity(F7, 2),
        Mat(F5, [[1, 0, 0], [0, 1, 0]]),
    ], ids=["F7_in_F5", "non_square"])
    def test_bad_step_two_multiplier_is_reported(self, multiplier):
        cert = certify_identity(Mat(F5, [[1, 2], [3, 4]]))
        steps = list(cert.steps)
        steps[1] = (multiplier, steps[1][1])
        verdict = replay(Certificate(start=cert.start, steps=tuple(steps)))
        assert verdict == ReplayResult(False, 2, "multiplier shape/field mismatch")

    def test_wrong_final_value(self):
        cert = reach_unit(Mat(F5, [[0, 3], [0, 0]]))
        # a genuine prefix that stops short of the identity
        verdict = replay(cert)
        assert not verdict.ok
        assert "identity" in verdict.reason
