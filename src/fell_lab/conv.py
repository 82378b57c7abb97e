"""Convolution-algebra elements as fiber-indexed matrices, with verifiers.

An element assigns to each base point a complex square matrix indexed by the
fiber through that point in its canonical order.  Convolution over an
equivalence-relation groupoid restricted to a single fiber is exactly matrix
multiplication,

    (f * g)(y1, y2) = sum over z in the fiber of f(y1, z) g(z, y2),

so ``convolve`` multiplies fiber matrices, ``adjoint`` conjugate-transposes
them, and the projection/fullness checks reduce to small dense linear
algebra (operator norms are largest singular values of matrices of size at
most four).

Verification is sampling-based: identities are checked exactly or to 1e-12
on finite sample sets, limits across branch classes to 1e-6 after
extrapolating geometric approach sequences (iterated Aitken acceleration,
which is exact for the geometrically decaying entry profiles produced by the
shipped elements).  Fullness is reported as a numerical witness - the
minimum over samples of the largest entry magnitude - never as a proof.

Branch-continuity defects compare the block of the fiber matrix spanned by
members that converge to lifts of the target class against the element's
value at those branch points.  Members that leave the total space along the
sequence carry no constraint at the branch point and are excluded; this is
what makes the constant-diagonal identity element continuous even on models
with noncompact total space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import spaces
from .spaces import (
    ApproachSequence,
    Orbit,
    PointRef,
    SpaceModel,
    WedgeModel,
    resolve_orbit,
)

ALGEBRA_TOL = 1e-12
CONTINUITY_TOL = 1e-6


class IncompatibilityError(ValueError):
    """Operands live over different models."""


class MissingSampleError(KeyError):
    """A grid element has no value stored at the requested base point."""


class NonHausdorffRegionError(ValueError):
    """A region contains two mutually non-separated base points."""


class RegionSectionError(ValueError):
    """A region meets some fiber in more than one point."""


class InvarianceError(ValueError):
    """A restriction target is not closed and groupoid-invariant."""


# ---------------------------------------------------------------------------
# Fiber matrices and element rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """A complex square matrix indexed by one fiber's canonical order."""

    orbit: Orbit
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.orbit.size, self.orbit.size):
            raise ValueError(
                f"entries shape {arr.shape} does not match fiber size {self.orbit.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.orbit.size

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, x: float) -> bool:
        lo_ok = x >= self.lo - spaces.TOL if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi + spaces.TOL if self.hi_closed else x < self.hi
        return lo_ok and hi_ok


@dataclass(frozen=True)
class RegionPiece:
    chart: int
    box: tuple[Interval, ...]


@dataclass(frozen=True)
class Region:
    """Per-chart coordinate boxes selecting a section of a compact open
    Hausdorff subset of the base."""

    pieces: tuple[RegionPiece, ...] = ()

    def contains(self, y: PointRef) -> bool:
        for piece in self.pieces:
            if piece.chart != y.chart or len(piece.box) != len(y.coord):
                continue
            if all(iv.contains(c) for iv, c in zip(piece.box, y.coord)):
                return True
        return False

    @classmethod
    def from_dict(cls, d: dict) -> "Region":
        pieces = []
        for pd in spaces.json_object(d, "a region").get("pieces", ()):
            box = tuple(
                Interval(
                    lo=spaces.finite_float(b["lo"], "lo"),
                    hi=spaces.finite_float(b["hi"], "hi"),
                    lo_closed=bool(b.get("lo_closed", True)),
                    hi_closed=bool(b.get("hi_closed", True)),
                )
                for b in pd["box"]
            )
            chart = spaces.exact_int(pd["chart"], "chart")
            pieces.append(RegionPiece(chart=chart, box=box))
        return cls(pieces=tuple(pieces))


@dataclass(frozen=True)
class BuiltinRule:
    name: str
    params: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class GridRule:
    values: dict[tuple, np.ndarray]  # base label -> matrix
    points: tuple[PointRef, ...]  # the given base points, one per value, in order

    def lookup(self, label: tuple) -> np.ndarray:
        try:
            return self.values[label]
        except KeyError:
            raise MissingSampleError(f"no stored value at base point {label!r}") from None


@dataclass(frozen=True)
class IndicatorRule:
    region: Region


@dataclass(frozen=True)
class AdjointRule:
    inner: "AlgebraElement"


@dataclass(frozen=True)
class SumRule:
    left: "AlgebraElement"
    right: "AlgebraElement"


@dataclass(frozen=True)
class ProductRule:
    left: "AlgebraElement"
    right: "AlgebraElement"


@dataclass(frozen=True)
class RestrictRule:
    inner: "AlgebraElement"
    side: str  # "left" | "right"


Rule = BuiltinRule | GridRule | IndicatorRule | AdjointRule | SumRule | ProductRule | RestrictRule


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the convolution algebra at sample resolution."""

    model: SpaceModel
    rule: Rule


BUILTIN_NAMES = ("identity", "zero", "twisted_sphere_projection")


def builtin_element(model: SpaceModel, name: str, **params: float) -> AlgebraElement:
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin element {name!r}")
    if name == "twisted_sphere_projection" and model.kind != "twisted_sphere":
        raise IncompatibilityError(
            "twisted_sphere_projection is defined over the twisted sphere model"
        )
    return AlgebraElement(model, BuiltinRule(name, tuple(sorted(params.items()))))


def identity_element(model: SpaceModel) -> AlgebraElement:
    return builtin_element(model, "identity")


def zero_element(model: SpaceModel) -> AlgebraElement:
    return builtin_element(model, "zero")


def twisted_sphere_projection(model: SpaceModel, **params: float) -> AlgebraElement:
    """The full projection over the twisted sphere.

    Diagonal weight 1-|z| on the twice-covering members and |z| on the
    once-covering members, coupling sqrt(|z|(1-|z|)/2) between them, with a
    unit phase e^{-i theta} against the second once-covering copy.  The
    phases of the two twice-covering members differ by pi, which is what
    makes the off-diagonal convolution terms cancel.
    """
    return builtin_element(model, "twisted_sphere_projection", **params)


def grid_element(
    model: SpaceModel,
    values: Mapping[PointRef, np.ndarray] | Iterable[tuple[PointRef, np.ndarray]],
) -> AlgebraElement:
    """Element given by explicit fiber matrices at finitely many base points."""
    items = values.items() if isinstance(values, Mapping) else values
    stored: dict[tuple, np.ndarray] = {}
    points = []
    for point, arr in items:
        orbit = resolve_orbit(model, point)
        label = orbit.base_label
        if label in stored:
            raise ValueError(f"duplicate grid value at base point {label!r}")
        mat = np.asarray(arr, dtype=complex)
        if mat.shape != (orbit.size, orbit.size):
            raise ValueError(
                f"matrix shape {mat.shape} does not match fiber size {orbit.size}"
            )
        if not np.isfinite(mat).all():
            raise ValueError(f"grid value at base point {label!r} is not finite")
        stored[label] = mat
        points.append(point)
    return AlgebraElement(model, GridRule(values=stored, points=tuple(points)))


def adjoint(f: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(f.model, AdjointRule(f))


def add(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    _check_same_model(f, g)
    return AlgebraElement(f.model, SumRule(f, g))


def product(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """The convolution product as a lazy element."""
    _check_same_model(f, g)
    return AlgebraElement(f.model, ProductRule(f, g))


def _check_same_model(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.model != g.model:
        raise IncompatibilityError("elements live over different models")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _sphere_projection_entries(orbit: Orbit, perturb: float) -> np.ndarray:
    z = abs(orbit.members[0].coord[1])
    if orbit.size == 1:
        mat = np.array([[1.0 - z]], dtype=complex)
    elif orbit.size == 2:
        mat = np.array([[z, 0.0], [0.0, z]], dtype=complex)
    else:
        u1, u2 = orbit.members[0], orbit.members[1]
        c = math.sqrt(0.5 * z * (1.0 - z))
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[1, 1] = 1.0 - z
        mat[2, 2] = mat[3, 3] = z
        for i, u in ((0, u1), (1, u2)):
            mat[i, 2] = c
            mat[2, i] = c
            phase = np.exp(-1j * u.coord[0])
            mat[i, 3] = phase * c
            mat[3, i] = np.conj(phase) * c
    if perturb:
        mat[0, 0] += perturb
    return mat


def evaluate(f: AlgebraElement, x: PointRef) -> FiberMatrix:
    """The fiber matrix of an element at a base point (given by any lift)."""
    orbit = resolve_orbit(f.model, x)
    return FiberMatrix(orbit, _entries_at(f, orbit))


def _entries_at(f: AlgebraElement, orbit: Orbit) -> np.ndarray:
    rule = f.rule
    if isinstance(rule, BuiltinRule):
        if rule.name == "identity":
            return np.eye(orbit.size, dtype=complex)
        if rule.name == "zero":
            return np.zeros((orbit.size, orbit.size), dtype=complex)
        params = dict(rule.params)
        return _sphere_projection_entries(
            orbit, float(params.get("perturb_first_diag", 0.0))
        )
    if isinstance(rule, GridRule):
        return rule.lookup(orbit.base_label).copy()
    if isinstance(rule, IndicatorRule):
        diag = [1.0 if rule.region.contains(m) else 0.0 for m in orbit.members]
        return np.diag(np.array(diag, dtype=complex))
    if isinstance(rule, AdjointRule):
        return _entries_at(rule.inner, orbit).conj().T
    if isinstance(rule, SumRule):
        return _entries_at(rule.left, orbit) + _entries_at(rule.right, orbit)
    if isinstance(rule, ProductRule):
        return _entries_at(rule.left, orbit) @ _entries_at(rule.right, orbit)
    if isinstance(rule, RestrictRule):
        wedge_model = rule.inner.model
        assert isinstance(wedge_model, WedgeModel)
        rep = orbit.members[0]
        if rule.side == "right":
            rep = PointRef(rep.chart + wedge_model.offset, rep.coord)
        big = evaluate(rule.inner, rep)
        if big.size != orbit.size:
            raise IncompatibilityError("restricted fiber size mismatch")
        return big.entries
    raise TypeError(f"unknown rule {rule!r}")


def convolve(f: AlgebraElement, g: AlgebraElement, x: PointRef) -> FiberMatrix:
    """Convolution at one base point: the product of the fiber matrices."""
    return evaluate(product(f, g), x)


# ---------------------------------------------------------------------------
# Indicator projections
# ---------------------------------------------------------------------------


def indicator_projection(model: SpaceModel, region: Region) -> AlgebraElement:
    """The diagonal indicator of a section over a compact open Hausdorff set.

    The region must avoid every pair of mutually non-separated base points
    (Hausdorffness proxy) and meet each fiber at most once (section
    property, checked on a sample set).  The resulting element has diagonal
    entries in {0, 1} only, so it is idempotent and self-adjoint exactly.
    """
    for a, b in model.branch_partner_pairs():
        if region.contains(model.normalize(a)) and region.contains(
            model.normalize(b)
        ):
            raise NonHausdorffRegionError(
                f"region contains the non-separated pair {a!r}, {b!r}"
            )
    probes = spaces.sample_base_points(model, 400, seed=97)
    for y in probes:
        orbit = resolve_orbit(model, y)
        hits = sum(1 for m in orbit.members if region.contains(m))
        if hits > 1:
            raise RegionSectionError(
                f"region meets the fiber over {orbit.base_label!r} {hits} times"
            )
    return AlgebraElement(model, IndicatorRule(region))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class VerificationReport:
    max_idempotency_defect: float
    max_selfadjoint_defect: float
    fullness_floor: float
    continuity_defects: tuple[tuple[str, float], ...]
    samples_used: int

    def __post_init__(self) -> None:
        if self.samples_used <= 0:
            raise ValueError("a report needs at least one sample")

    def passes(self, tol: float) -> bool:
        return self.max_idempotency_defect <= tol and self.max_selfadjoint_defect <= tol

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite defect is ``None`` (strict JSON)."""
        return {
            "max_idempotency_defect": _finite_or_none(self.max_idempotency_defect),
            "max_selfadjoint_defect": _finite_or_none(self.max_selfadjoint_defect),
            "fullness_floor": self.fullness_floor,
            "continuity_defects": [
                {"branch_class": name, "defect": _finite_or_none(d)}
                for name, d in self.continuity_defects
            ],
            "samples_used": self.samples_used,
        }

    def text(self) -> str:
        lines = [
            f"samples_used: {self.samples_used}",
            f"max_idempotency_defect: {self.max_idempotency_defect}",
            f"max_selfadjoint_defect: {self.max_selfadjoint_defect}",
            f"fullness_floor: {self.fullness_floor}",
        ]
        for name, d in self.continuity_defects:
            lines.append(f"continuity_defect[{name}]: {d}")
        return "\n".join(lines)


# Fiber matrices of one size are stacked this many at a time, so that each
# operator norm is one batched SVD call while the stack stays small in memory.
VERIFY_CHUNK = 256


def verify_projection(p: AlgebraElement, samples: list[PointRef]) -> VerificationReport:
    """Operator-norm defects of idempotency and self-adjointness over samples.

    ``report.passes(tol)`` holds iff both maxima are within ``tol``; the
    fullness floor over the same samples is included for convenience.  Fiber
    matrices are grouped by size and checked ``VERIFY_CHUNK`` at a time; the
    maxima and the floor are those of the per-sample values.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    max_idem = 0.0
    max_sa = 0.0
    floor = math.inf

    def fold(pending: list[np.ndarray]) -> None:
        # np.maximum keeps a NaN defect (a square that overflows) instead of
        # dropping it, so such a report fails rather than reading 0; the
        # overflow itself is that NaN, not a warning.
        nonlocal max_idem, max_sa, floor
        a = np.stack(pending)
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            max_idem = np.maximum(max_idem, np.linalg.norm(a @ a - a, 2, axis=(1, 2)).max())
            adj = a.conj().transpose(0, 2, 1)
            max_sa = np.maximum(max_sa, np.linalg.norm(a - adj, 2, axis=(1, 2)).max())
        floor = min(floor, float(np.abs(a).max(axis=(1, 2)).min()))

    by_size: dict[int, list[np.ndarray]] = {}
    for x in samples:
        orbit = resolve_orbit(p.model, x)
        pending = by_size.setdefault(orbit.size, [])
        pending.append(_entries_at(p, orbit))
        if len(pending) == VERIFY_CHUNK:
            fold(pending)
            pending.clear()
    for pending in by_size.values():
        if pending:
            fold(pending)
    return VerificationReport(
        max_idempotency_defect=float(max_idem),
        max_selfadjoint_defect=float(max_sa),
        fullness_floor=floor,
        continuity_defects=(),
        samples_used=len(samples),
    )


def verify_fullness_witness(p: AlgebraElement, samples: list[PointRef]) -> float:
    """Minimum over samples of the largest entry magnitude of the fiber matrix.

    A strictly positive floor over a stratified sample set is the numerical
    witness that the element does not vanish over any base point; zero means
    some sampled fiber matrix is identically zero.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    return min(evaluate(p, x).max_abs() for x in samples)


def _aitken(seq: list[complex]) -> list[complex]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        denom = (c - b) - (b - a)
        if abs(denom) < 1e-300:
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / denom)
    return out


def extrapolate_limit(values: Iterable[complex]) -> complex:
    """Accelerated limit of a geometrically converging sequence.

    Iterated Aitken acceleration; exact for sequences of the form
    L + c * r^k, which covers the entry profiles (linear and square-root in
    the distance parameter) produced along geometric approach sequences.
    """
    seq = [complex(v) for v in values]
    for _ in range(3):
        if len(seq) < 3:
            break
        seq = _aitken(seq)
    return seq[-1]


@dataclass(frozen=True)
class ContinuityDefect:
    sequence: str  # "<branch class>:<direction>"
    defect: float
    within_tol: bool


def check_branch_continuity(
    f: AlgebraElement,
    seqs: list[ApproachSequence],
    tol: float = CONTINUITY_TOL,
) -> list[ContinuityDefect]:
    """Extrapolated limits along approach sequences versus branch-point values.

    For each sequence, fiber members are classified by matching the closest
    sample against the lifts of the target class's members; entries between
    members converging to lifts of the same branch point are extrapolated and
    compared against the element's value there, and the defect is the largest
    entry deviation.  Members with no limit in the total space are excluded.
    """
    model = f.model
    out = []
    for seq in seqs:
        orbits = [resolve_orbit(model, x) for x in seq.samples]
        size = orbits[0].size
        if any(o.size != size for o in orbits):
            raise ValueError(
                f"fiber size changes along approach sequence {seq.direction!r}"
            )
        values = [_entries_at(f, o) for o in orbits]
        cls = model.branch_class(seq.branch_class)
        target_orbits = {
            name: resolve_orbit(model, model.named_point(name))
            for name in cls.members
        }
        limit_of = _classify_members(
            model.charts, orbits[-1], target_orbits, seq.distances[-1]
        )
        defect = 0.0
        for name, torbit in target_orbits.items():
            idxs = [
                (i, lift_idx)
                for i, (n, lift_idx) in limit_of.items()
                if n == name
            ]
            if not idxs:
                continue
            target = _entries_at(f, torbit)
            for i, a in idxs:
                for j, b in idxs:
                    lim = extrapolate_limit([v[i, j] for v in values])
                    defect = max(defect, abs(lim - target[a, b]))
        out.append(
            ContinuityDefect(
                sequence=f"{seq.branch_class}:{seq.direction}",
                defect=defect,
                within_tol=defect <= tol,
            )
        )
    return out


def _classify_members(
    periods: tuple[float | None, ...],
    orbit: Orbit,
    target_orbits: dict[str, Orbit],
    last_distance: float,
) -> dict[int, tuple[str, int]]:
    """Match fiber members of the closest sample to branch-point lifts."""
    threshold = max(8.0 * last_distance, 64.0 * spaces.TOL)
    out: dict[int, tuple[str, int]] = {}
    for i, m in enumerate(orbit.members):
        for name, torbit in target_orbits.items():
            for lift_idx, lift in enumerate(torbit.members):
                if lift.chart != m.chart or len(lift.coord) != len(m.coord):
                    continue
                dist = 0.0
                for axis, (a, b) in enumerate(zip(m.coord, lift.coord)):
                    d = abs(a - b)
                    if axis == 0 and periods[m.chart] is not None:
                        d = min(d, periods[m.chart] - d)
                    dist = max(dist, d)
                if dist <= threshold:
                    out[i] = (name, lift_idx)
    return out


# ---------------------------------------------------------------------------
# Restriction to a closed invariant part
# ---------------------------------------------------------------------------


def restrict(f: AlgebraElement, part) -> AlgebraElement:
    """Restriction homomorphism onto a closed groupoid-invariant part.

    For a wedge model, either factor is closed and invariant (fibers never
    cross the glue point), and the restriction is evaluation over the factor:
    it is multiplicative and adjoint-preserving fiberwise by construction.
    ``part`` may be "left"/"right" or the factor model itself.  Any other
    target is checked for invariance on samples and rejected.
    """
    model = f.model
    if isinstance(model, WedgeModel):
        side = None
        if part == "left" or part == model.left:
            side = "left"
        elif part == "right" or part == model.right:
            side = "right"
        elif isinstance(part, (set, frozenset, tuple, list)):
            ids = set(part)
            if ids == set(range(model.offset)):
                side = "left"
            elif ids == set(range(model.offset, len(model.charts))):
                side = "right"
        if side is not None:
            sub = model.left if side == "left" else model.right
            return AlgebraElement(sub, RestrictRule(f, side))
    if isinstance(part, (set, frozenset, tuple, list)):
        chart_ids = set(part)
        all_ids = set(range(len(model.charts)))
        if chart_ids == all_ids:
            return f
        for y in spaces.sample_base_points(model, 200, seed=23):
            orbit = resolve_orbit(model, y)
            inside = [m.chart in chart_ids for m in orbit.members]
            if any(inside) and not all(inside):
                raise InvarianceError(
                    f"fiber over {orbit.base_label!r} crosses the chart subset"
                )
        raise InvarianceError(
            "chart subset is invariant on samples but is not a wedge factor; "
            "only factor restrictions are supported"
        )
    raise InvarianceError(f"cannot restrict to {part!r}")
