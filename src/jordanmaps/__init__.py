"""Exact arithmetic for Jordan-product-preserving matrix maps: reachability
certificates under x o y = (xy + yx)/2, and constructive classification of
the maps that preserve it (or its char-2-safe double, x <> y = xy + yx)."""

from .classifier import (
    CanonicalForm,
    ItemResult,
    SuiteReport,
    classify,
    classify_rectangular,
    classify_with_report,
    preservation_suite,
)
from .counterexamples import (
    CounterexampleBundle,
    all_examples,
    block_embedding_example,
    char2_example,
    triangular_example,
)
from .errors import (
    InvariantViolation,
    JordanMapsError,
    NotJordanMultiplicative,
    UnsupportedInput,
    UnsupportedSize,
)
from .exact_fields import (
    Field,
    RingEndo,
    Scalar,
    endo_enumerate,
    galois_field,
    preset_field,
    prime_field,
    rational_field,
)
from .generation import (
    Certificate,
    LadderCoefficients,
    ReplayResult,
    certify_identity,
    ladder,
    p_sequence,
    reach_unit,
    replay,
    spread_units,
)
from .jordan_order import simultaneous_diagonalizer
from .maps import (
    CIRC,
    DIAMOND,
    JordanMap,
    MultReport,
    Strategy,
    check_multiplicative,
    diamond_to_circ,
)
from .matrices import (
    Mat,
    block_diag,
    is_idempotent,
    jordan_circ,
    jordan_diamond,
    mat_identity,
    mat_unit,
    mat_zero,
)

# loaded with the package, so `jordanmaps.serialization` is bound after a bare
# `import jordanmaps` (perfbench/tracing.py wraps its codecs through it)
from . import serialization

__version__ = "0.1.0"

__all__ = [
    "CIRC",
    "CanonicalForm",
    "Certificate",
    "CounterexampleBundle",
    "DIAMOND",
    "Field",
    "InvariantViolation",
    "ItemResult",
    "JordanMap",
    "JordanMapsError",
    "LadderCoefficients",
    "Mat",
    "MultReport",
    "NotJordanMultiplicative",
    "ReplayResult",
    "RingEndo",
    "Scalar",
    "Strategy",
    "SuiteReport",
    "UnsupportedInput",
    "UnsupportedSize",
    "all_examples",
    "block_diag",
    "block_embedding_example",
    "certify_identity",
    "char2_example",
    "check_multiplicative",
    "classify",
    "classify_rectangular",
    "classify_with_report",
    "diamond_to_circ",
    "endo_enumerate",
    "galois_field",
    "is_idempotent",
    "jordan_circ",
    "jordan_diamond",
    "ladder",
    "mat_identity",
    "mat_unit",
    "mat_zero",
    "p_sequence",
    "preservation_suite",
    "preset_field",
    "prime_field",
    "rational_field",
    "reach_unit",
    "replay",
    "simultaneous_diagonalizer",
    "spread_units",
    "triangular_example",
    "__version__",
]
