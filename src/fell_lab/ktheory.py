"""Exact integer linear algebra for two-strata K-theory computations.

All arithmetic is plain Python ``int`` (arbitrary precision), so every
postcondition here is an exact identity: ``U @ A @ V == S`` for the Smith
normal form, kernels and cokernels of integer matrices as finitely generated
abelian groups in canonical form, and the six-term solver

    K0 = coker(delta1) (+) ker(delta0)
    K1 = coker(delta0) (+) ker(delta1)

for extensions whose four outer K-groups are free (the kernels are then free,
so both extensions split).  The transpose of a boundary matrix computes the
dual theory, and ``vertex_class_boundary`` generates boundary matrices for
one-dimensional stratified spaces whose quotient stratum consists of point
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaces import ParameterError  # re-exported: one class for both layers
from .spaces import exact_int, json_object


class UnsupportedInputError(ValueError):
    """Raised when an operation is asked for input outside its contract,
    e.g. a six-term system with torsion in the outer groups."""


class IncidenceError(ValueError):
    """Raised for malformed edge/vertex-class incidence data."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """An exact integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            return cls(0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            row = self.entries[i * self.cols : (i + 1) * self.cols]
            for j in range(other.cols):
                out.append(
                    sum(row[k] * other.entry(k, j) for k in range(self.cols))
                )
        return IntMatrix(self.rows, other.cols, tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))


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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    """Unimodular U, V and diagonal S with U @ A @ V == S exactly."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal of S is nonnegative and forms a divisibility chain
    d1 | d2 | ... ; U and V collect the row and column operations, so
    ``U @ a @ V == S`` holds as an exact integer identity.
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

    return SNFResult(
        U=IntMatrix.from_rows(u, cols=m),
        S=IntMatrix.from_rows(s, cols=n),
        V=IntMatrix.from_rows(v, cols=n),
    )


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in canonical form.

    ``rank`` counts the free summands; ``torsion`` lists the invariant
    factors, each at least 2 and each dividing the next.
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_divisors(cls, rank: int, divisors: list[int] | tuple[int, ...]) -> "FgAbGroup":
        """Canonicalize an arbitrary list of cyclic orders into invariant factors.

        Divisors equal to 0 add free rank; the rest are combined pairwise by
        Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b), which leaves each entry
        dividing every later one, and the 1s are dropped.
        """
        r = rank
        ds = []
        for d in divisors:
            d = abs(int(d))
            if d == 0:
                r += 1
            elif d > 1:
                ds.append(d)
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                g = math.gcd(ds[i], ds[j])
                ds[i], ds[j] = g, ds[i] // g * ds[j]
        return cls(rank=r, torsion=tuple(d for d in ds if d > 1))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        rank = self.rank + sum(g.rank for g in others)
        divisors = list(self.torsion)
        for g in others:
            divisors.extend(g.torsion)
        return FgAbGroup.from_divisors(rank, divisors)

    def power(self, e: int) -> "FgAbGroup":
        """The e-fold direct sum of this group with itself (e >= 0)."""
        if e < 0:
            raise ParameterError("power must be nonnegative")
        return FgAbGroup.from_divisors(self.rank * e, list(self.torsion) * e)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def _kernel_cokernel(a: IntMatrix) -> tuple[FgAbGroup, FgAbGroup]:
    """Kernel and cokernel of a, both read off one Smith form.

    The nonzero diagonal is already an invariant-factor chain, so the
    cokernel's torsion is its entries of at least 2, unsorted; ``FgAbGroup``
    rejects a diagonal that is not a divisibility chain.
    """
    diag = [d for d in smith_normal_form(a).S.diagonal() if d != 0]
    r = len(diag)
    return FgAbGroup(a.cols - r), FgAbGroup(a.rows - r, tuple(d for d in diag if d >= 2))


def kernel(a: IntMatrix) -> FgAbGroup:
    """Kernel of the map Z^cols -> Z^rows given by a; always free."""
    return _kernel_cokernel(a)[0]


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Cokernel Z^rows / im(a); torsion given by the invariant factors."""
    return _kernel_cokernel(a)[1]


# ---------------------------------------------------------------------------
# Six-term solver for two-strata extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoStrataSES:
    """K-theory data of an ideal/quotient extension with free outer groups.

    ``delta0`` maps K0 of the quotient to K1 of the ideal (matrix shape
    rank(K1_I) x rank(K0_Q)); ``delta1`` maps K1 of the quotient to K0 of
    the ideal (shape rank(K0_I) x rank(K1_Q)).
    """

    K0_I: FgAbGroup
    K1_I: FgAbGroup
    K0_Q: FgAbGroup
    K1_Q: FgAbGroup
    delta0: IntMatrix
    delta1: IntMatrix

    def __post_init__(self) -> None:
        for g in (self.K0_I, self.K1_I, self.K0_Q, self.K1_Q):
            if g.torsion:
                raise UnsupportedInputError(
                    "six-term input groups must be torsion-free"
                )
        if self.delta0.rows != self.K1_I.rank or self.delta0.cols != self.K0_Q.rank:
            raise ValueError("delta0 shape does not match group ranks")
        if self.delta1.rows != self.K0_I.rank or self.delta1.cols != self.K1_Q.rank:
            raise ValueError("delta1 shape does not match group ranks")


def solve_six_term(s: TwoStrataSES) -> tuple[FgAbGroup, FgAbGroup]:
    """K-groups of the extension from its boundary matrices.

    Exactness pins K0 between coker(delta1) and ker(delta0), and K1 between
    coker(delta0) and ker(delta1); the kernels of integer matrices are free,
    so both extensions split and the answer is the direct sum.
    """
    ker0, coker0 = _kernel_cokernel(s.delta0)
    ker1, coker1 = _kernel_cokernel(s.delta1)
    return coker1.direct_sum(ker0), coker0.direct_sum(ker1)


# ---------------------------------------------------------------------------
# Boundary-map generator for one-dimensional stratified spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeStratum:
    """An open-interval edge of the ideal stratum.

    ``rank`` is the matrix-block size of the ideal over the edge.  ``tail``
    and ``head`` give, per vertex class, the multiplicity with which the
    negative and positive end of the edge approaches that class.
    """

    name: str
    rank: int
    tail: tuple[tuple[str, int], ...]
    head: tuple[tuple[str, int], ...]

    @classmethod
    def make(
        cls, name: str, rank: int, tail: dict[str, int], head: dict[str, int]
    ) -> "EdgeStratum":
        return cls(
            name,
            rank,
            tuple(sorted(tail.items())),
            tuple(sorted(head.items())),
        )


@dataclass(frozen=True)
class OneDStratified:
    edges: tuple[EdgeStratum, ...]
    vertex_classes: tuple[str, ...]

    def __post_init__(self) -> None:
        classes = set(self.vertex_classes)
        if len(classes) != len(self.vertex_classes):
            raise IncidenceError("duplicate vertex class names")
        for e in self.edges:
            if e.rank < 1:
                raise IncidenceError(f"edge {e.name!r} has rank < 1")
            for end_name, end in (("tail", e.tail), ("head", e.head)):
                if not end:
                    raise IncidenceError(
                        f"edge {e.name!r} {end_name} has no incident class"
                    )
                for c, mult in end:
                    if c not in classes:
                        raise IncidenceError(
                            f"edge {e.name!r} references unknown class {c!r}"
                        )
                    if mult < 0:
                        raise IncidenceError("incidence multiplicities must be >= 0")


def vertex_class_boundary(strat: OneDStratified) -> IntMatrix:
    """Boundary matrix (edges x vertex classes): head minus tail multiplicity."""
    rows = []
    for e in strat.edges:
        head = dict(e.head)
        tail = dict(e.tail)
        rows.append(
            [head.get(c, 0) - tail.get(c, 0) for c in strat.vertex_classes]
        )
    return IntMatrix.from_rows(rows, cols=len(strat.vertex_classes))


# ---------------------------------------------------------------------------
# Dual theory, duality check, pinch formula
# ---------------------------------------------------------------------------


def k_homology(delta0: IntMatrix) -> tuple[FgAbGroup, FgAbGroup]:
    """Dual K-groups from the transposed boundary matrix:
    (coker(delta0^T), ker(delta0^T))."""
    ker, coker = _kernel_cokernel(delta0.transpose())
    return coker, ker


@dataclass(frozen=True)
class DualityReport:
    even_self_dual: bool
    odd_self_dual_rationally: bool


def duality_check(
    k0: FgAbGroup, k1: FgAbGroup, k0h: FgAbGroup, k1h: FgAbGroup
) -> DualityReport:
    """Compare a theory with its dual degreewise and with a degree shift.

    Even self-duality asks for abstract isomorphisms in matching degrees;
    odd self-duality is tested rationally (ranks only) across degrees.
    """
    return DualityReport(
        even_self_dual=(k0 == k0h and k1 == k1h),
        odd_self_dual_rationally=(k0.rank == k1h.rank and k1.rank == k0h.rank),
    )


def pinch_k_theory(
    k_m: tuple[FgAbGroup, FgAbGroup],
    k_a: tuple[FgAbGroup, FgAbGroup],
    k: int,
) -> tuple[FgAbGroup, FgAbGroup]:
    """K-groups of the space obtained by splitting each point of a closed
    subset A of M into k points: degreewise K(M) (+) K(A)^(k-1)."""
    if k < 2:
        raise ParameterError("sheet count k must be at least 2")
    return (
        k_m[0].direct_sum(k_a[0].power(k - 1)),
        k_m[1].direct_sum(k_a[1].power(k - 1)),
    )


def pinch_strata_oracle(m: int, k: int) -> tuple[FgAbGroup, FgAbGroup]:
    """Independent route to the pinch K-groups through the six-term solver.

    For the circle with an m-point split set: the ideal contributes the
    circle's K-groups (corner inclusion is a K-isomorphism), the quotient
    contributes Z^(m(k-1)) in degree 0, and both boundary maps vanish.
    """
    if m < 0:
        raise ParameterError("split-set size must be nonnegative")
    if k < 2:
        raise ParameterError("sheet count k must be at least 2")
    s = TwoStrataSES(
        K0_I=FgAbGroup(1),
        K1_I=FgAbGroup(1),
        K0_Q=FgAbGroup(m * (k - 1)),
        K1_Q=FgAbGroup(0),
        delta0=IntMatrix.zero(1, m * (k - 1)),
        delta1=IntMatrix.zero(1, 0),
    )
    return solve_six_term(s)


# ---------------------------------------------------------------------------
# File format (JSON-syntax dictionaries)
# ---------------------------------------------------------------------------


def group_from_dict(d: dict) -> FgAbGroup:
    d = json_object(d, "a group")
    return FgAbGroup(
        rank=exact_int(d.get("rank", 0), "rank"),
        torsion=tuple(exact_int(t, "torsion value") for t in d.get("torsion", ())),
    )


def matrix_from_dict(d: dict) -> IntMatrix:
    d = json_object(d, "a matrix")
    return IntMatrix(
        exact_int(d["rows"], "rows"),
        exact_int(d["cols"], "cols"),
        tuple(exact_int(e, "matrix entry") for e in d["entries"]),
    )


def ses_from_dict(d: dict) -> TwoStrataSES:
    """Parse a two-strata system from its file representation.

    Groups are given as ``{"rank": n}`` (optionally with ``"torsion"``, which
    the solver rejects); matrices as ``{"rows", "cols", "entries"}`` with
    row-major entries.  ``delta1`` may be omitted when K1_Q or K0_I is trivial.
    """
    k0_i = group_from_dict(d["K0_I"])
    k1_i = group_from_dict(d["K1_I"])
    k0_q = group_from_dict(d["K0_Q"])
    k1_q = group_from_dict(d["K1_Q"])
    delta0 = matrix_from_dict(d["delta0"]) if "delta0" in d else IntMatrix.zero(
        k1_i.rank, k0_q.rank
    )
    delta1 = matrix_from_dict(d["delta1"]) if "delta1" in d else IntMatrix.zero(
        k0_i.rank, k1_q.rank
    )
    return TwoStrataSES(k0_i, k1_i, k0_q, k1_q, delta0, delta1)


def ses_to_dict(s: TwoStrataSES) -> dict:
    def g(x: FgAbGroup) -> dict:
        out: dict = {"rank": x.rank}
        if x.torsion:
            out["torsion"] = list(x.torsion)
        return out

    def m(x: IntMatrix) -> dict:
        return {"rows": x.rows, "cols": x.cols, "entries": list(x.entries)}

    return {
        "K0_I": g(s.K0_I),
        "K1_I": g(s.K1_I),
        "K0_Q": g(s.K0_Q),
        "K1_Q": g(s.K1_Q),
        "delta0": m(s.delta0),
        "delta1": m(s.delta1),
    }
