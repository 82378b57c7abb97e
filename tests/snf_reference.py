"""Reference Smith normal form with unimodular transforms, for the tests.

``fell_lab.ktheory.smith_normal_form`` returns only the invariant-factor
diagonal.  The reference below runs the same pivot loop but also collects
every row operation in U and every column operation in V, so its result is
certified by the exact identity ``U @ a @ V == S`` with ``|det U| =
|det V| = 1``.  The tests check those identities here and then compare the
library's diagonal with this S on the same inputs.
"""

from __future__ import annotations

from fell_lab.ktheory import IntMatrix, smith_normal_form


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def matmul(first: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    """The exact product ``first @ rest[0] @ rest[1] @ ...``."""
    out = first
    for other in rest:
        if out.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        entries = []
        for i in range(out.rows):
            row = out.entries[i * out.cols : (i + 1) * out.cols]
            for j in range(other.cols):
                entries.append(sum(row[k] * other.entry(k, j) for k in range(out.cols)))
        out = IntMatrix(out.rows, other.cols, tuple(entries))
    return out


def diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(m.entry(i, i) for i in range(min(m.rows, m.cols)))


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form_reference(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(U, S, V)``.  The diagonal of S is nonnegative and forms a
    divisibility chain d1 | d2 | ... ; U and V collect the row and column
    operations, so ``U @ a @ V == S`` holds as an exact integer identity.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    def min_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (
                    best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])
                ):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        done = False
        while True:
            # Re-select the smallest-magnitude entry of the trailing block as
            # pivot each sweep; remainders (always < pivot) then become the
            # next pivot, so the pivot value strictly decreases between dirty
            # sweeps and the entries never blow up.
            pivot = min_pivot(t)
            if pivot is None:
                done = True
                break
            if pivot[0] != t:
                swap_rows(pivot[0], t)
            if pivot[1] != t:
                swap_cols(pivot[1], t)
            if s[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    row_sub(i, t, s[i][t] // s[t][t])
                    if s[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    col_sub(j, t, s[t][j] // s[t][t])
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Divisibility fix-up: fold in any row containing an entry the
            # pivot does not divide; the next sweep shrinks the pivot to a gcd.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        if done:
            break
        t += 1

    return (
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(s, cols=n),
        IntMatrix.from_rows(v, cols=n),
    )


def assert_snf_postconditions(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Certify the reference on ``a`` and check the library's diagonal
    against it; returns the reference's ``(U, S, V)``."""
    u, s, v = smith_normal_form_reference(a)
    assert matmul(u, a, v) == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert s.entry(i, j) == 0
    diag = diagonal(s)
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        elif y != 0:
            assert y % x == 0
    assert smith_normal_form(a) == diag
    return u, s, v
