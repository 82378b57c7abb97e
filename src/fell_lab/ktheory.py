"""Exact integer linear algebra for two-strata K-theory computations.

All arithmetic is plain Python ``int`` (arbitrary precision), so every
result here is exact: the invariant-factor diagonal of the Smith normal form,
kernels and cokernels of integer matrices as finitely generated abelian
groups in canonical form, and the six-term solver

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
from .spaces import read_json


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
        if type(self.rows) is not int or type(self.cols) is not int:  # excludes bool and float
            raise ValueError("matrix dimensions must be integers")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(type(e) is int for e in self.entries):  # excludes bool and float
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            return cls(0, 0 if cols is None else cols, ())
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

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


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(a: IntMatrix) -> tuple[int, ...]:
    """Invariant-factor diagonal of an integer matrix.

    Unimodular row and column operations reduce ``a`` to a diagonal S; the
    result is S's diagonal, ``min(rows, cols)`` nonnegative entries that form
    a divisibility chain d1 | d2 | ... with the zeros last.
    """
    m, n = a.rows, a.cols
    if min(m, n) == 0:  # nothing to reduce; an empty matrix may still have many rows
        return ()
    s = a.to_rows()

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]

    def swap_cols(i: int, j: int) -> None:
        for row in s:
            row[i], row[j] = row[j], row[i]

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
                s[pivot[0]], s[t] = s[t], s[pivot[0]]
            if pivot[1] != t:
                swap_cols(pivot[1], t)
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
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

    return tuple(s[i][i] for i in range(min(m, n)))


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
    diag = [d for d in smith_normal_form(a) if d != 0]
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
    the ideal (shape rank(K0_I) x rank(K1_Q)).  A map may be left out only
    when its shape is empty, which forces its one value; any other omitted
    map raises ``ParameterError``.
    """

    K0_I: FgAbGroup
    K1_I: FgAbGroup
    K0_Q: FgAbGroup
    K1_Q: FgAbGroup
    delta0: IntMatrix | None = None
    delta1: IntMatrix | None = None

    def __post_init__(self) -> None:
        for g in (self.K0_I, self.K1_I, self.K0_Q, self.K1_Q):
            if g.torsion:
                raise UnsupportedInputError(
                    "six-term input groups must be torsion-free"
                )
        for name, rows, cols in (("delta0", self.K1_I.rank, self.K0_Q.rank),
                                 ("delta1", self.K0_I.rank, self.K1_Q.rank)):
            if getattr(self, name) is None:
                if rows and cols:
                    raise ParameterError(f"{name} may be left out only when its shape is "
                                         f"empty, not {rows} x {cols}")
                object.__setattr__(self, name, IntMatrix.zero(rows, cols))
            delta = getattr(self, name)
            if (delta.rows, delta.cols) != (rows, cols):
                raise ValueError(f"{name} shape does not match group ranks")


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


def ses_from_dict(d: dict) -> TwoStrataSES:
    """Parse a two-strata system from its file representation.

    The object holds the fields of ``TwoStrataSES``, read by ``read_json``:
    groups as ``{"rank": n}`` (optionally with ``"torsion"``, which the
    solver rejects) and matrices as ``{"rows", "cols", "entries"}`` with
    row-major entries.  Any other key raises ``ParameterError``.
    ``spaces.write_json`` writes a system in this form.
    """
    return read_json(TwoStrataSES, d, "a six-term system")
