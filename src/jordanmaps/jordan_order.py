"""Idempotent order and orthogonality under the circ product, and simultaneous
diagonalization of complete orthogonal rank-one idempotent families.

For idempotents P, Q the associative and Jordan descriptions coincide:

    P <= Q   iff  PQ = QP = P   iff  P o Q = P
    P perp Q iff  PQ = QP = 0   iff  P o Q = 0

`idempotent_relations` evaluates both sides of four such equivalences
independently (against an arbitrary second argument) and reports whether they
agree — a self-test primitive used by the property suite.
"""

from dataclasses import dataclass

from .errors import InvariantViolation
from .matrices import Mat, conjugator, is_idempotent, jordan_circ, mat_identity, mat_unit, mat_zero


def _require_idempotent(m, label):
    if not is_idempotent(m):
        raise ValueError(f"{label} must be idempotent")


def jordan_le(p, q):
    """Order on idempotents: p o q = p (equivalently pq = qp = p)."""
    _require_idempotent(p, "p")
    _require_idempotent(q, "q")
    return jordan_circ(p, q) == p


def jordan_perp(p, q):
    """Orthogonality of idempotents: p o q = 0 (equivalently pq = qp = 0)."""
    _require_idempotent(p, "p")
    _require_idempotent(q, "q")
    return jordan_circ(p, q).is_zero


def perp_complement(p):
    """The complementary idempotent I - p (orthogonal to p, sums to I)."""
    _require_idempotent(p, "p")
    return mat_identity(p.field, p.nrows) - p


@dataclass(frozen=True)
class IdempotentRelations:
    """Agreement flags for four equivalent characterizations relating an
    idempotent P to an arbitrary A (valid in characteristic != 2):

      annihilation: P o A = 0  <->  PA = AP = PAP = 0
      absorption:   P o A = A  <->  PA = AP = PAP = A
      orthogonality:PA = AP = 0  <->  P o A = 0
      domination:   PA = AP = P  <->  P o A = P

    Each flag is True when the two sides agree on the given pair.
    """

    annihilation: bool
    absorption: bool
    orthogonality: bool
    domination: bool

    @property
    def all_agree(self):
        return self.annihilation and self.absorption and self.orthogonality and self.domination


def idempotent_relations(p, a):
    _require_idempotent(p, "p")
    if a.field != p.field or (a.nrows, a.ncols) != (p.nrows, p.ncols):
        raise ValueError("shape or field mismatch")
    zero = mat_zero(p.field, p.nrows)
    pa, ap = p @ a, a @ p
    pap = pa @ p
    circ = jordan_circ(p, a)

    annihilation = (circ == zero) == (pa == zero and ap == zero and pap == zero)
    absorption = (circ == a) == (pa == a and ap == a and pap == a)
    orthogonality = (pa == zero and ap == zero) == (circ == zero)
    domination = (pa == p and ap == p) == (circ == p)
    return IdempotentRelations(annihilation, absorption, orthogonality, domination)


class IdempotentFamily:
    """A complete orthogonal family: n rank-one idempotents Q_1..Q_n over one
    field, pairwise orthogonal, summing to the identity.

    Construction validates every invariant and raises InvariantViolation with
    a stage tag on the first failure.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise InvariantViolation("idempotent_family", "empty family")
        field = members[0].field
        n = members[0].nrows
        if len(members) != n:
            raise InvariantViolation(
                "idempotent_family",
                f"need exactly n={n} members, got {len(members)}",
            )
        for idx, q in enumerate(members, start=1):
            if q.field != field or (q.nrows, q.ncols) != (n, n):
                raise InvariantViolation("idempotent_family", f"member {idx} has wrong shape/field")
            if not is_idempotent(q):
                raise InvariantViolation("idempotent_family", f"member {idx} is not idempotent", q)
            if q.rank() != 1:
                raise InvariantViolation(
                    "idempotent_family", f"member {idx} has rank {q.rank()}, expected 1", q
                )
        zero = mat_zero(field, n)
        for i in range(n):
            for j in range(i + 1, n):
                if members[i] @ members[j] != zero or members[j] @ members[i] != zero:
                    raise InvariantViolation(
                        "idempotent_family",
                        f"members {i + 1} and {j + 1} are not orthogonal",
                        (members[i], members[j]),
                    )
        total = members[0]
        for q in members[1:]:
            total = total + q
        if not total.is_identity:
            raise InvariantViolation("idempotent_family", "members do not sum to the identity")
        self.members = members
        self.field = field
        self.n = n

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return self.n


def simultaneous_diagonalizer(family):
    """Invertible T with T^-1 Q_j T = E_jj for every member (index order kept).

    Column j of T is the first nonzero column of Q_j, used unscaled: that
    column spans the rank-one image and is fixed by Q_j, so stacking one such
    vector per member diagonalizes the whole family at once. Both the
    invertibility of T and every conjugation are verified exactly.
    """
    if not isinstance(family, IdempotentFamily):
        family = IdempotentFamily(family)
    f, n = family.field, family.n
    zero = f.zero
    columns = []
    for q in family:
        col_idx = next(
            (c for c in range(n) if any(q.rows[r][c] != zero for r in range(n))), None
        )
        if col_idx is None:
            raise InvariantViolation("diagonalizer", "zero member in validated family", q)
        columns.append(tuple(q.rows[r][col_idx] for r in range(n)))
    t = Mat._from_raw(f, tuple(zip(*columns)))
    try:
        t_inv = t.inverse()
    except ValueError:
        raise InvariantViolation("diagonalizer", "assembled matrix is singular", t) from None
    undo = conjugator(t_inv, t)
    for j, q in enumerate(family, start=1):
        if undo(q) != mat_unit(f, n, j, j):
            raise InvariantViolation(
                "diagonalizer", f"conjugation does not send member {j} to E_{j}{j}", (t, q)
            )
    return t
