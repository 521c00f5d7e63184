"""Simultaneous diagonalization of a complete orthogonal family of rank-one
idempotents Q_1..Q_n: T with T^-1 Q_j T = E_jj for every j.

No module of the package calls it. It stays while `perfbench/tracing.py`
wraps `simultaneous_diagonalizer` by name.
"""

from .errors import InvariantViolation
from .matrices import Mat, conjugator, mat_unit


def simultaneous_diagonalizer(members):
    """Invertible T with T^-1 Q_j T = E_jj for each of the n given n x n
    matrices Q_j (index order kept).

    Column j of T is the first nonzero column of Q_j, used unscaled: for an
    idempotent of rank one that column spans the image and is fixed by Q_j,
    so one such vector per member diagonalizes the whole family at once. The
    invertibility of T and every conjugation are verified exactly; they hold
    exactly when Q_j = T E_jj T^-1 for every j, that is when the members form
    a complete orthogonal family of rank-one idempotents. Every refusal raises
    InvariantViolation with stage "diagonalizer".
    """
    members = tuple(members)
    n = len(members)
    if not members or any(
        q.field is not members[0].field or (q.nrows, q.ncols) != (n, n) for q in members
    ):
        raise InvariantViolation("diagonalizer", "need n matrices of size n x n over one field")
    f = members[0].field
    zero = f.zero
    columns = []
    for q in members:
        # a zero member keeps column 0, which leaves T singular
        col = next((c for c in range(n) if any(q.rows[r][c] != zero for r in range(n))), 0)
        columns.append(tuple(q.rows[r][col] for r in range(n)))
    t = Mat._from_raw(f, tuple(zip(*columns)))
    try:
        t_inv = t.inverse()
    except ValueError:
        raise InvariantViolation("diagonalizer", "assembled matrix is singular", t) from None
    undo = conjugator(t_inv, t)
    for j, q in enumerate(members, start=1):
        if undo(q) != mat_unit(f, n, j, j):
            raise InvariantViolation(
                "diagonalizer", f"conjugation does not send member {j} to E_{j}{j}", (t, q)
            )
    return t
