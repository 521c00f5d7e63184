"""Tests of the reference checks: each corrupts a right answer and requires
the check to reject it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import jordanmaps as jm  # noqa: E402
import reference as ref  # noqa: E402


def to_program(field, F, a):
    return jm.Mat(field, [[F.to_entry(v) for v in row] for row in a])


@pytest.mark.parametrize("name", ["F5", "F9", "Q"])
def test_reference_products_match_the_program(name):
    field, F = jm.preset_field(name), ref.RefField(name)
    rng = random.Random(1)
    for _ in range(5):
        a = tuple(tuple(F.random(rng) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(F.random(rng) for _ in range(3)) for _ in range(3))
        got = jm.jordan_circ(to_program(field, F, a), to_program(field, F, b))
        assert ref.from_program(F, got) == ref.circ(F, a, b)


def test_f9_arithmetic():
    F = ref.RefField("F9")
    i = (0, 1)
    assert F.mul(i, i) == F.neg(F.one)
    for a in F.elements():
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
        for b in F.elements():
            assert F.frobenius(1, F.mul(a, b)) == F.mul(F.frobenius(1, a), F.frobenius(1, b))
            assert F.frobenius(1, F.add(a, b)) == F.add(F.frobenius(1, a), F.frobenius(1, b))


# -- certificates ---------------------------------------------------------------


@pytest.fixture
def certificate():
    field, F = jm.preset_field("F7"), ref.RefField("F7")
    x = ((1, 2, 0), (3, 0, 5), (0, 6, 4))
    return F, x, jm.certify_identity(to_program(field, F, x))


def test_certificate_is_accepted(certificate):
    F, x, cert = certificate
    assert ref.check_certificate(F, x, cert) is None


def test_corrupted_step_is_rejected(certificate):
    F, x, cert = certificate
    steps = list(cert.steps)
    y, result = steps[2]
    steps[2] = (y, result.scale(2))
    assert "step 3 does not recompute" in ref.check_certificate(F, x, replace(cert, steps=tuple(steps)))


def test_corrupted_multiplier_is_rejected(certificate):
    F, x, cert = certificate
    steps = list(cert.steps)
    y, result = steps[0]
    steps[0] = (y.scale(3), result)
    assert ref.check_certificate(F, x, replace(cert, steps=tuple(steps))) is not None


def test_truncated_chain_is_rejected(certificate):
    F, x, cert = certificate
    assert ref.check_certificate(F, x, replace(cert, steps=cert.steps[:-1])) == "chain does not end at I"


def test_overlong_chain_is_rejected(certificate):
    F, x, cert = certificate
    ident = jm.mat_identity(jm.preset_field("F7"), 3)
    steps = cert.steps + ((ident, ident),) * 10
    assert "length" in ref.check_certificate(F, x, replace(cert, steps=steps))


def test_zero_intermediate_is_rejected():
    field, F = jm.preset_field("F5"), ref.RefField("F5")
    e11, e22 = jm.mat_unit(field, 2, 1, 1), jm.mat_unit(field, 2, 2, 2)
    zero = jm.mat_zero(field, 2)
    cert = jm.Certificate(start=e11, steps=((e22, zero),))
    assert ref.check_certificate(F, ref.from_program(F, e11), cert) == "step 1 is zero"


def test_certificate_of_another_start_is_rejected(certificate):
    F, x, cert = certificate
    other = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert ref.check_certificate(F, other, cert) is not None


# -- forms ----------------------------------------------------------------------


@pytest.fixture
def planted_f9():
    field, F = jm.preset_field("F9"), ref.RefField("F9")
    t, _ = ref.random_invertible(F, 2, random.Random(4))
    phi = jm.JordanMap.conjugation(to_program(field, F, t), endo=jm.RingEndo(field, 1), transpose=True)
    return F, t, jm.classify(phi)


def test_planted_conjugation_is_accepted(planted_f9):
    F, t, form = planted_f9
    assert ref.check_conjugation(F, form, t, 1, True, "circ") is None
    assert ref.check_conjugation(F, form, ref.scale(F, (2, 1), t), 1, True, "circ") is None


def test_wrong_t_is_rejected(planted_f9):
    F, t, form = planted_f9
    other = ref.add(F, t, ref.unit(F, 2, 1, 2))
    assert "scalar multiple" in ref.check_conjugation(F, form, other, 1, True, "circ")


def test_wrong_transpose_flag_or_endomorphism_is_rejected(planted_f9):
    F, t, form = planted_f9
    assert "transpose" in ref.check_conjugation(F, form, t, 1, False, "circ")
    assert "endomorphism" in ref.check_conjugation(F, form, t, 0, True, "circ")
    assert "mode" in ref.check_conjugation(F, form, t, 1, True, "diamond")


def test_wrong_constant_is_rejected():
    field, F = jm.preset_field("F3"), ref.RefField("F3")
    p = ((1, 1), (0, 0))
    form = jm.classify(jm.JordanMap.constant(field, 2, to_program(field, F, p)))
    assert ref.check_constant(F, form, p, "circ") is None
    assert ref.check_constant(F, form, ((1, 0), (0, 0)), "circ") is not None
    assert ref.check_constant(F, form, ((0, 0), (0, 0)), "circ") is not None
    not_idempotent = replace(form, idempotent=to_program(field, F, ((2, 0), (0, 0))))
    assert ref.check_constant(F, not_idempotent, ((2, 0), (0, 0)), "circ") is not None


# -- witnesses and evidence -------------------------------------------------------


def test_pair_that_is_not_a_witness_is_rejected():
    field, F = jm.preset_field("F7"), ref.RefField("F7")
    t, t_inv = ref.random_invertible(F, 3, random.Random(2))
    u = ref.unit(F, 3, 1, 1)
    bad = ref.scale(F, 3, ref.conjugation(F, t, t_inv, 0, False, u))
    phi = lambda x: bad if x == u else ref.conjugation(F, t, t_inv, 0, False, x)
    e11, e12 = (to_program(field, F, ref.unit(F, 3, 1, j)) for j in (1, 2))
    assert ref.check_witness(F, phi, "circ", (e11, e11)) is None
    assert ref.check_witness(F, phi, "circ", (e12, e12)) is not None
    assert ref.check_witness(F, phi, "circ", None) is not None


def test_short_or_sampled_evidence_is_rejected():
    assert ref.check_exhaustive(jm.MultReport(True, 81 * 81, "exhaustive"), 81) is None
    assert ref.check_exhaustive(jm.MultReport(True, 81 * 80, "exhaustive"), 81) is not None
    assert ref.check_exhaustive(jm.MultReport(True, 81 * 81, "sampled:1000:0"), 81) is not None
    assert ref.check_exhaustive(jm.MultReport(False, 5, "exhaustive"), 81) is not None
