from dataclasses import replace
from fractions import Fraction

import pytest

from jordanmaps import counterexamples
from jordanmaps import (
    JordanMap,
    Mat,
    Scalar,
    UnsupportedInput,
    all_examples,
    block_embedding_example,
    char2_example,
    check_multiplicative,
    galois_field,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
    rational_field,
    triangular_example,
)

F2 = preset_field("F2")
F5 = preset_field("F5")


class TestTriangular:
    def test_bundle_verifies(self):
        bundle = triangular_example(F5)
        assert bundle.verify()
        assert bundle.map.domain == "upper_triangular"
        assert bundle.evidence.qualifier == "exhaustive"
        assert bundle.evidence.pairs_checked == 125 * 125

    def test_squares_the_diagonal(self):
        phi = triangular_example(F5).map
        x = Mat(F5, [[2, 1], [0, 3]])
        assert phi(x) == Mat(F5, [[4, 0], [0, 4]])

    def test_not_additive(self):
        bundle = triangular_example(F5)
        x, y = bundle.non_additivity
        assert bundle.map(x + y) != bundle.map(x) + bundle.map(y)

    def test_rationals(self):
        bundle = triangular_example(rational_field())
        assert bundle.verify()
        assert bundle.evidence.qualifier.startswith("sampled")

    def test_char2_has_no_such_example(self):
        with pytest.raises(UnsupportedInput):
            triangular_example(F2)

    @pytest.mark.parametrize("name, witness", [
        ("F5", (1, 1)), ("p:97", (1, 1)), ("Q", (Fraction(-17, 2), 7)), ("p:101", (41, 19)),
    ])
    def test_scalar_witness(self, name, witness):
        field = rational_field() if name == "Q" else preset_field(name)
        a, b = triangular_example(field).extra["scalar_witness"]
        assert (a, b) == tuple(field.scalar(v) for v in witness)

    def test_scalar_witness_over_f125_keeps_raw_draws(self):
        # the first draws of Random(7) are the raw values 41 and 121, which
        # read as integers through the prime subfield would both be 1
        field = galois_field(5, 3)
        bundle = triangular_example(field)
        assert bundle.extra["scalar_witness"] == (Scalar(field, 41), Scalar(field, 121))
        x, y = bundle.non_additivity
        assert bundle.map(x + y) != bundle.map(x) + bundle.map(y)


class TestChar2:
    def test_default_bundle(self):
        bundle = char2_example()
        assert bundle.verify()
        assert bundle.map.mode == "diamond"
        assert bundle.evidence.pairs_checked == 256
        assert bundle.evidence.qualifier == "exhaustive"

    def test_witnesses_replay(self):
        bundle = char2_example()
        x, y = bundle.non_additivity
        assert bundle.map(x + y) != bundle.map(x) + bundle.map(y)
        a, z = bundle.non_constancy
        assert bundle.map(a) != bundle.map(z)

    def test_custom_pair(self):
        a = mat_unit(F2, 2, 1, 1) + mat_unit(F2, 2, 2, 1)
        bundle = char2_example(a=a, b=mat_identity(F2, 2))
        assert bundle.verify()

    def test_traceless_a_rejected(self):
        with pytest.raises(ValueError):
            char2_example(a=mat_unit(F2, 2, 1, 2))

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            char2_example(b=mat_zero(F2, 2))


class TestBlockEmbedding:
    def test_bundle_verifies(self):
        bundle = block_embedding_example(F5)
        assert bundle.verify()
        assert bundle.map.m == 4
        # multiplicative but visibly non-constant and unequal at 0 vs I
        x, y = bundle.non_constancy
        assert bundle.map(x) != bundle.map(y)

    def test_respects_products_on_fresh_check(self):
        bundle = block_embedding_example(F5)
        assert check_multiplicative(bundle.map, bundle.strategy).ok

    def test_char2_rejected(self):
        with pytest.raises(UnsupportedInput):
            block_embedding_example(F2)


class TestVerifyFails:
    # `replace` builds a new bundle, whose evidence is checked again
    def test_when_the_evidence_fails(self):
        doubled = JordanMap.from_oracle(F5, 2, lambda x: x.scale(2), domain="upper_triangular")
        bundle = replace(triangular_example(F5), map=doubled)
        assert not bundle.evidence
        assert not bundle.verify()

    def test_when_the_non_additivity_pair_does_not_replay(self):
        # both E_12 and 2 E_12 map to 0
        x = mat_unit(F5, 2, 1, 2)
        bundle = replace(triangular_example(F5), non_additivity=(x, x))
        assert bundle.evidence
        assert not bundle.verify()

    def test_when_the_non_constancy_pair_does_not_replay(self):
        bundle = char2_example()
        a = bundle.non_constancy[0]
        bundle = replace(bundle, non_constancy=(a, a))
        assert bundle.evidence
        assert not bundle.verify()


def test_all_examples():
    bundles = all_examples()
    assert [b.name for b in bundles] == ["triangular", "char2", "block_embedding"]
    assert all(b.verify() for b in bundles)


@pytest.mark.parametrize(
    "build",
    [
        lambda: triangular_example(F5),
        lambda: triangular_example(rational_field()),
        lambda: char2_example(n=2),
        lambda: char2_example(n=3),
        lambda: block_embedding_example(preset_field("F3")),
        lambda: block_embedding_example(F5),
    ],
    ids=["triangular-F5", "triangular-Q", "char2-2", "char2-3", "block-F3", "block-F5"],
)
def test_one_scan_per_bundle(build, monkeypatch):
    scans = []

    def counted(phi, strategy=None):
        scans.append(phi)
        return check_multiplicative(phi, strategy)

    monkeypatch.setattr(counterexamples, "check_multiplicative", counted)
    bundle = build()
    assert bundle.verify()
    assert len(scans) == 1
    assert bundle.evidence == check_multiplicative(bundle.map, bundle.strategy)


def test_evidence_is_not_an_argument():
    bundle = char2_example()
    with pytest.raises(TypeError):
        counterexamples.CounterexampleBundle(
            name="x", description="x", map=bundle.map, strategy=bundle.strategy,
            evidence=bundle.evidence)
