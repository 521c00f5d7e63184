"""Constructions showing the classification's hypotheses are sharp.

* On the upper-triangular subalgebra, X |-> diag(x_11^2, ..., x_nn^2)
  squares the diagonal through a multiplicative-but-not-additive scalar map:
  it preserves the circ product without being linear — full matrix algebras
  are essential.
* Over F_2 the diamond product degenerates (trace(X <> Y) = 0 always), so a
  map supported on a single trace-one matrix preserves it while fitting none
  of the three shapes — odd characteristic is essential.
* X |-> blockdiag(X, E_11) into M_2n sends 0 to a nonzero idempotent without
  being constant — equal matrix sizes are essential for that dichotomy.

Each bundle carries the map, witness pairs for the failures (non-additivity,
non-constancy) and the preservation evidence of its one scan of the map;
`verify` checks that evidence and replays the witness pairs.
"""

import random
from dataclasses import dataclass, field as dc_field

from .errors import UnsupportedInput, UnsupportedSize
from .exact_fields import Scalar, prime_field
from .maps import (
    CIRC,
    DIAMOND,
    JordanMap,
    MultReport,
    Strategy,
    _domain,
    _resolve_strategy,
    check_multiplicative,
)
from .matrices import Mat, _raw_draw, block_diag, mat_identity, mat_unit, mat_zero


@dataclass(frozen=True)
class CounterexampleBundle:
    name: str
    description: str
    map: JordanMap
    strategy: Strategy
    evidence: MultReport = dc_field(init=False)
    non_additivity: tuple = None
    non_constancy: tuple = None
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "evidence", check_multiplicative(self.map, self.strategy))

    def verify(self):
        """Check the bundle's preservation evidence and replay every witness pair."""
        if not self.evidence:
            return False
        if self.non_additivity is not None:
            x, y = self.non_additivity
            if self.map(x + y) == self.map(x) + self.map(y):
                return False
        if self.non_constancy is not None:
            x, y = self.non_constancy
            if self.map(x) == self.map(y):
                return False
        return True


def triangular_example(field, n=2):
    """Diagonal-squaring map on upper-triangular matrices.

    phi(X) = diag(x_11^2, ..., x_nn^2) preserves X o Y because the diagonal
    of a product of triangular matrices is the product of the diagonals, and
    squaring is multiplicative. Squaring is not additive outside
    characteristic 2, so neither is phi, hence it is not of conjugation shape.
    """
    if field.char2:
        raise UnsupportedInput("squaring is additive in characteristic 2; no example there")
    # (a + b)^2 != a^2 + b^2 exactly when 2ab != 0: (1, 1) in a field of order
    # at most 97, else the first seeded draw of two nonzero scalars
    one = field.scalar(1)
    scalar_witness = (one, one)
    if not (field.is_finite and field.order <= 97):
        draw = _raw_draw(field, random.Random(7))
        draws = ((Scalar(field, draw()), Scalar(field, draw())) for _ in range(200))
        scalar_witness = next(
            ((a, b) for a, b in draws if not (a.is_zero or b.is_zero)), scalar_witness
        )
    zero = field.zero

    def fn(x):
        rows = x.rows
        return Mat._from_raw(field, tuple(
            tuple(field.mul(rows[i][i], rows[i][i]) if i == j else zero for j in range(n))
            for i in range(n)
        ))

    phi = JordanMap.from_oracle(field, n, fn, mode=CIRC, domain="upper_triangular")
    a, b = scalar_witness
    x = mat_identity(field, n).scale(a)
    y = mat_identity(field, n).scale(b)
    return CounterexampleBundle(
        name="triangular",
        description=(
            "on upper-triangular matrices, squeezing the diagonal through a "
            "multiplicative non-additive scalar map preserves the circ product "
            "without being linear"
        ),
        map=phi,
        strategy=_resolve_strategy(phi),
        non_additivity=(x, y),
        non_constancy=(mat_zero(field, n), mat_identity(field, n)),
        extra={"domain": "upper_triangular", "scalar_witness": scalar_witness},
    )


def char2_example(n=2, a=None, b=None):
    """Diamond-preserving map over F_2 fitting none of the three shapes.

    phi sends one chosen matrix A (with trace 1) to B and everything else to
    0. Since trace(X <> Y) = 2 trace(XY) = 0 over F_2, no diamond product ever
    equals A, so phi(X <> Y) = 0 = phi(X) <> phi(Y) (B <> B = 2B^2 = 0 too).
    """
    if n < 2:
        # on M_1(F_2) the map is the identity, which is a conjugation
        raise UnsupportedSize("the char2 example needs n >= 2")
    f2 = prime_field(2)
    # refuses a domain no table may cover before enumerating it
    domain = _domain(f2, n, "full")[0]
    if a is None:
        a = mat_unit(f2, n, 1, 1)
    if b is None:
        b = mat_unit(f2, n, 1, 2)
    if a.field is not f2 or b.field is not f2 or a.nrows != n or b.nrows != n:
        raise ValueError("A and B must be n x n matrices over F_2")
    if a.trace() != f2.scalar(1):
        raise ValueError("A must have trace 1 (otherwise some X <> Y hits it)")
    if b.is_zero:
        raise ValueError("B must be nonzero for the map to be nonzero")
    zero = mat_zero(f2, n)
    phi = JordanMap.from_table(f2, n, {x: (b if x == a else zero) for x in domain}, mode=DIAMOND)
    y = next(x for x in domain if not x.is_zero and x != a and x + a != a)
    return CounterexampleBundle(
        name="char2",
        description=(
            "over F_2 the diamond product has trace zero, so a map supported "
            "on a single trace-one matrix preserves it while being neither "
            "zero, constant-idempotent, nor a twisted conjugation"
        ),
        map=phi,
        strategy=Strategy.exhaustive(),
        non_additivity=(a, y),
        non_constancy=(a, zero),
        extra={"support": a, "value": b, "trace_condition": "trace(A) = 1"},
    )


def block_embedding_example(field, n=2):
    """Corner embedding M_n -> M_2n, X |-> blockdiag(X, E_11).

    Preserves the circ product, yet sends 0 to the nonzero idempotent
    blockdiag(0, E_11) without being constant: maps into larger algebras
    escape the constant/zero dichotomy that holds for equal sizes.
    """
    if field.char2:
        raise UnsupportedInput("the circ product needs characteristic != 2")
    p = mat_unit(field, n, 1, 1)

    def fn(x):
        return block_diag(x, p)

    phi = JordanMap.from_oracle(field, n, fn, mode=CIRC, m=2 * n)
    ident = mat_identity(field, n)
    return CounterexampleBundle(
        name="block_embedding",
        description=(
            "embedding X as a diagonal block next to a fixed idempotent "
            "preserves the circ product but sends 0 to a nonzero value "
            "without being constant"
        ),
        map=phi,
        strategy=_resolve_strategy(phi),
        non_additivity=(ident, ident),
        non_constancy=(mat_zero(field, n), ident),
        extra={"corner": p, "codomain_size": 2 * n},
    )


def all_examples():
    """The three bundles: triangular and block embedding over F_5, char2 over F_2."""
    field = prime_field(5)
    return [
        triangular_example(field),
        char2_example(),
        block_embedding_example(field),
    ]
