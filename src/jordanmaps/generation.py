"""Constructive reachability under the circ product: for any nonzero X, build a
replayable chain (((X o Y_1) o Y_2) o ...) o Y_k = I.

The chain has three phases:

  1. reach a single matrix unit E_ii from X (4 steps via a nonzero
     off-diagonal entry, 2 steps via a diagonal one),
  2. re-anchor at E_11 if needed (3 steps),
  3. climb rank by rank: from D_{r-1} = E_11 + ... + E_{r-1,r-1} produce the
     ladder triple A_r, then A_r o B_r, then (A_r o B_r) o C_r = D_r, until
     D_n = I.

The ladder coefficients are built from the integer sequence p_1 = 1,
p_j = 2 * 3^(j-2), which satisfies p_j = 2 * (p_1 + ... + p_{j-1}) — so the
construction survives reduction mod any odd characteristic, including the
char-3 collapse p_j = 0 for j >= 3.
"""

import functools
from dataclasses import dataclass, field as dc_field

from .errors import InvariantViolation, UnsupportedInput
from .exact_fields import Scalar
from .matrices import Mat, jordan_circ, mat_diag_idempotent, mat_unit


def p_sequence(j):
    """Integer ladder coefficients: p_1 = 1, p_j = 2 * 3^(j-2) for j >= 2."""
    if j < 1:
        raise ValueError("p-sequence is indexed from 1")
    return 1 if j == 1 else 2 * 3 ** (j - 2)


@dataclass(frozen=True)
class LadderCoefficients:
    """The rank-r ladder triple (A, B, C) embedded in M_n, with D = target."""

    r: int
    p_values: tuple
    a: Mat
    b: Mat
    c: Mat
    d: Mat


def ladder(f, n, r):
    """Ladder triple for rank r in M_n(f): D_r = (A_r o B_r) o C_r.

    One formula serves both parities, with r = 2k + odd:
        A = sum_{j<=k+odd} E_jj - 2 * sum_{j<i<=k} E_ij
        B = -b E_{k+odd,k+1} + 4 * sum_{1<=i<=j<=k} p_i E_{j, r+i-j}
        C = -E_{k+1,k+odd} + sum_{1<=j<k+odd} E_{r+1-j, j}
    where b = 8 for even r and b = 1 for odd r.

    A_r is supported in the leading (r-1)x(r-1) block, so A_r o D_{r-1} = A_r.
    """
    if f.char2:
        raise UnsupportedInput("ladder matrices need characteristic != 2")
    if not 2 <= r <= n:
        raise ValueError(f"rank r={r} out of range 2..{n}")
    of = f.of
    a = [[f.zero] * n for _ in range(n)]
    b = [[f.zero] * n for _ in range(n)]
    c = [[f.zero] * n for _ in range(n)]
    k, odd = divmod(r, 2)
    for j in range(1, k + odd + 1):
        a[j - 1][j - 1] = f.one
    minus_two = of(-2)
    for j in range(1, k + 1):
        for i in range(j + 1, k + 1):
            a[i - 1][j - 1] = minus_two
    b[k - 1 + odd][k] = of(-1 if odd else -8)
    for i in range(1, k + 1):
        four_p = of(4 * p_sequence(i))
        for j in range(i, k + 1):
            col = r + i - j
            b[j - 1][col - 1] = f.add(b[j - 1][col - 1], four_p)
    c[k][k - 1 + odd] = of(-1)
    for j in range(1, k + odd):
        c[r - j][j - 1] = f.one
    p_vals = tuple(Scalar(f, of(p_sequence(j))) for j in range(1, (r + 1) // 2 + 1))
    freeze = lambda m: Mat._from_raw(f, tuple(tuple(row) for row in m))
    return LadderCoefficients(
        r=r, p_values=p_vals, a=freeze(a), b=freeze(b), c=freeze(c), d=mat_diag_idempotent(f, n, 0, r)
    )


@dataclass(frozen=True)
class Certificate:
    """A replayable circ-product chain: steps of (multiplier Y, expected result).

    Full certificates end at the identity; the reach phase alone yields a
    prefix ending at a matrix unit.
    """

    start: Mat
    steps: tuple = dc_field(default=())

    @property
    def field(self):
        return self.start.field

    @property
    def final(self):
        return self.steps[-1][1] if self.steps else self.start

    def results(self):
        return [res for _, res in self.steps]

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    failed_step: int = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def _extend(start, steps, y, expected=None):
    """Append one verified step: current o y must equal `expected` if given."""
    current = steps[-1][1] if steps else start
    result = jordan_circ(current, y)
    if expected is not None and result != expected:
        raise InvariantViolation(
            "chain", f"step {len(steps) + 1} produced an unexpected result", (y, result, expected)
        )
    steps.append((y, result))
    return result


def reach_unit(x):
    """Certificate prefix from a nonzero X to some matrix unit E_ii.

    A nonzero off-diagonal entry X_ij gives the 4-step chain
        X -> X o E_ji -> X_ij E_ji -> E_ii + E_jj -> E_ll
    landing at l = 1 whenever the pivot touches index 1 (so the later
    re-anchoring step is usually free). A diagonal pivot X_ii gives the 2-step
    chain X -> X o (1/X_ii E_ii) -> E_ii.
    """
    if x.is_zero:
        raise UnsupportedInput("cannot reach a unit from the zero matrix")
    if not x.is_square:
        raise ValueError("reach_unit needs a square matrix")
    f, n = x.field, x.nrows
    zero = f.zero
    pivot = None
    for i, j in sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j),
        key=lambda ij: (1 not in ij, ij),
    ):
        if x.rows[i - 1][j - 1] != zero:
            pivot = (i, j)
            break
    steps = []
    if pivot is not None:
        i, j = pivot
        xij = x.rows[i - 1][j - 1]
        _extend(x, steps, mat_unit(f, n, j, i))
        _extend(x, steps, mat_unit(f, n, j, i, 2), mat_unit(f, n, j, i, Scalar(f, xij)))
        _extend(
            x,
            steps,
            mat_unit(f, n, i, j, Scalar(f, f.div(f.of(2), xij))),
            mat_unit(f, n, i, i) + mat_unit(f, n, j, j),
        )
        land = 1 if 1 in (i, j) else i
        _extend(x, steps, mat_unit(f, n, land, land), mat_unit(f, n, land, land))
    else:
        i = next(i for i in range(1, n + 1) if x.rows[i - 1][i - 1] != zero)
        xii = x.rows[i - 1][i - 1]
        _extend(x, steps, mat_unit(f, n, i, i, Scalar(f, f.inv(xii))))
        _extend(x, steps, mat_unit(f, n, i, i), mat_unit(f, n, i, i))
    return Certificate(start=x, steps=tuple(steps))


def spread_units(f, n, i, j):
    """Steps carrying a chain from E_ii to E_jj (empty when i = j):

        E_ii o (2E_ji) = E_ji;  E_ji o (2E_ij) = E_ii + E_jj;
        (E_ii + E_jj) o E_jj = E_jj.
    """
    if i == j:
        return []
    e_ii = mat_unit(f, n, i, i)
    e_jj = mat_unit(f, n, j, j)
    return [
        (mat_unit(f, n, j, i, 2), mat_unit(f, n, j, i)),
        (mat_unit(f, n, i, j, 2), e_ii + e_jj),
        (e_jj, e_jj),
    ]


def _refuse_char2(f):
    if f.char2:
        raise UnsupportedInput("certificates use the circ product: characteristic != 2 required")


@functools.lru_cache(maxsize=32)
def _climb(f, n):
    """The ladder steps from E_11 = D_1 to D_n = I in M_n(f), three per rank
    r = 2..n, each verified by `_extend` when the climb is built. They depend
    on (f, n) alone and are shared by every certificate; an LRU smaller than
    the set of (f, n) a caller cycles through would miss on every call."""
    start = mat_unit(f, n, 1, 1)
    steps = []
    for r in range(2, n + 1):
        coeffs = ladder(f, n, r)
        _extend(start, steps, coeffs.a, coeffs.a)
        _extend(start, steps, coeffs.b)
        _extend(start, steps, coeffs.c, coeffs.d)
    return tuple(steps)


def certify_identity(x):
    """Full certificate from a nonzero X in M_n to the identity.

    Phases: reach_unit, re-anchor at E_11 via spread_units if the reach landed
    elsewhere, then three ladder steps per rank r = 2..n. The multiplier
    realizing A_r from D_{r-1} is A_r itself: A_r lives in the leading
    (r-1)-block, where D_{r-1} is the identity, so D_{r-1} o A_r = A_r,
    verified once per (field, n), when the climb is built. The reach and the
    re-anchoring are verified on every call, the last of them against E_11,
    where the climb starts. Total length is at most 3 + 6(n-1).
    """
    _refuse_char2(x.field)
    prefix = reach_unit(x)
    f, n = x.field, x.nrows
    steps = list(prefix.steps)
    ((land, _),) = prefix.final.support()  # the reach ends at E_ll, verified
    for y, expected in spread_units(f, n, land, 1):
        _extend(x, steps, y, expected)
    steps.extend(_climb(f, n))
    cert = Certificate(start=x, steps=tuple(steps))
    if not cert.final.is_identity:
        raise InvariantViolation("chain", "certificate did not terminate at the identity")
    if len(cert) > 3 + 6 * (n - 1):
        raise InvariantViolation("chain", f"certificate length {len(cert)} exceeds 3 + 6(n-1)")
    return cert


def replay(cert):
    """Recompute every step exactly; confirm chaining, nonzero intermediates,
    and a final identity. Nothing is taken from the climb `certify_identity`
    caches. A characteristic-2 certificate is refused with UnsupportedInput
    before any step is replayed, as `certify_identity` refuses it; every other
    bad certificate is reported, never raised."""
    _refuse_char2(cert.field)
    current = cert.start
    total = len(cert.steps)
    for t, (y, expected) in enumerate(cert.steps, start=1):
        try:
            recomputed = jordan_circ(current, y)
        except ValueError:
            # its argument check: two square matrices of one size over one
            # field are required, and the kernel raises no ValueError
            return ReplayResult(False, t, "multiplier shape/field mismatch")
        if recomputed != expected:
            return ReplayResult(False, t, "recorded result differs from recomputation")
        if recomputed.is_zero and t < total:
            return ReplayResult(False, t, "intermediate result is zero")
        current = recomputed
    if not current.is_identity:
        return ReplayResult(False, None, "final result is not the identity")
    return ReplayResult(True)
