import random

import pytest

import fell_lab.ktheory
from hypothesis import given, settings
from hypothesis import strategies as st

from fell_lab.ktheory import (
    EdgeStratum,
    FgAbGroup,
    IncidenceError,
    IntMatrix,
    OneDStratified,
    ParameterError,
    TwoStrataSES,
    UnsupportedInputError,
    cokernel,
    determinant,
    duality_check,
    k_homology,
    kernel,
    pinch_k_theory,
    pinch_strata_oracle,
    ses_from_dict,
    ses_to_dict,
    smith_normal_form,
    solve_six_term,
    vertex_class_boundary,
)

Z = FgAbGroup(1)
Z2 = FgAbGroup(2)
Z3 = FgAbGroup(3)
TRIVIAL = FgAbGroup(0)

SPLICE_DELTA0 = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])

SPLICE_SES = TwoStrataSES(
    K0_I=TRIVIAL,
    K1_I=Z2,
    K0_Q=Z3,
    K1_Q=TRIVIAL,
    delta0=SPLICE_DELTA0,
    delta1=IntMatrix.zero(0, 0),
)

HEART_SES = TwoStrataSES(
    K0_I=TRIVIAL,
    K1_I=Z,
    K0_Q=Z,
    K1_Q=TRIVIAL,
    delta0=IntMatrix.from_rows([[1]]),
    delta1=IntMatrix.zero(0, 0),
)


def random_matrix(rng, max_dim=8, bound=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng, n, ops=6):
    """Product of elementary shears/swaps/negations applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randint(0, 2)
        if kind == 0:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=n)


def _prime_powers(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def from_divisors_by_prime_powers(rank, divisors):
    """Reference canonicalization: split every order into prime powers, then
    build the i-th largest invariant factor from the i-th largest power of
    each prime."""
    exps = {}
    r = rank
    for d in divisors:
        d = abs(int(d))
        if d == 0:
            r += 1
            continue
        if d == 1:
            continue
        for p, e in _prime_powers(d).items():
            exps.setdefault(p, []).append(e)
    depth = max((len(v) for v in exps.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p, es in exps.items():
            es_sorted = sorted(es, reverse=True)
            if i < len(es_sorted):
                f *= p ** es_sorted[i]
        factors.append(f)
    return FgAbGroup(rank=r, torsion=tuple(reversed(factors)))


def count_snf_calls(monkeypatch):
    """Count calls of ``smith_normal_form`` made from inside the module."""
    calls = []
    inner = fell_lab.ktheory.smith_normal_form

    def counted(a):
        calls.append(a)
        return inner(a)

    monkeypatch.setattr(fell_lab.ktheory, "smith_normal_form", counted)
    return calls


def assert_snf_postconditions(a):
    res = smith_normal_form(a)
    assert res.U @ a @ res.V == res.S
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    diag = res.S.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert res.S.entry(i, j) == 0
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        elif y != 0:
            assert y % x == 0
    return res


class TestSmithNormalForm:
    def test_identity(self):
        res = smith_normal_form(IntMatrix.identity(3))
        assert res.S == IntMatrix.identity(3)

    def test_two_by_two(self):
        # d1 = gcd of all entries = 2, d1*d2 = |det| = 8, so S = diag(2, 4).
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = assert_snf_postconditions(a)
        assert res.S == IntMatrix.from_rows([[2, 0], [0, 4]])

    def test_splice_boundary(self):
        # Rank 1 by minors, gcd 1: diag(1, 0) padded to 2x3.
        res = assert_snf_postconditions(SPLICE_DELTA0)
        assert res.S == IntMatrix.from_rows([[1, 0, 0], [0, 0, 0]])

    def test_empty_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            a = IntMatrix.zero(rows, cols)
            res = smith_normal_form(a)
            assert res.S == a
            assert res.U == IntMatrix.identity(rows)
            assert res.V == IntMatrix.identity(cols)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_postconditions_hypothesis(self, rows):
        assert_snf_postconditions(IntMatrix.from_rows(rows))


class TestKernelCokernel:
    def test_splice_kernel_cokernel(self):
        assert kernel(SPLICE_DELTA0) == Z2
        assert cokernel(SPLICE_DELTA0) == Z

    def test_splice_transpose(self):
        t = SPLICE_DELTA0.transpose()
        assert cokernel(t) == Z2
        assert kernel(t) == Z

    def test_zero_map_from_nothing(self):
        assert kernel(IntMatrix.zero(0, 4)) == FgAbGroup(4)

    def test_index_two_cokernel(self):
        assert cokernel(IntMatrix.from_rows([[2]])) == FgAbGroup(0, (2,))

    def test_rank_equations(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_matrix(rng, max_dim=6)
            r = sum(1 for d in smith_normal_form(a).S.diagonal() if d != 0)
            assert kernel(a).rank + r == a.cols
            assert cokernel(a).rank + r == a.rows

    def test_one_smith_form_per_matrix(self, monkeypatch):
        calls = count_snf_calls(monkeypatch)
        solve_six_term(SPLICE_SES)
        assert len(calls) == 2  # delta0 and delta1
        calls.clear()
        k_homology(SPLICE_DELTA0)
        assert len(calls) == 1

    def test_basis_invariance(self):
        rng = random.Random(12)
        for _ in range(40):
            a = random_matrix(rng, max_dim=5, bound=9)
            p = random_unimodular(rng, a.rows)
            q = random_unimodular(rng, a.cols)
            b = p @ a @ q
            assert kernel(b) == kernel(a)
            assert cokernel(b) == cokernel(a)


class TestFgAbGroup:
    def test_canonicalization(self):
        g = FgAbGroup.from_divisors(1, [2, 3, 4])
        assert g == FgAbGroup(1, (2, 12))

    @settings(max_examples=300, deadline=None)
    @given(
        rank=st.integers(0, 3),
        divisors=st.lists(
            st.one_of(st.sampled_from([0, 1, -1]), st.integers(-500, 500)), max_size=10
        ),
    )
    def test_gcd_lcm_matches_prime_powers(self, rank, divisors):
        expected = from_divisors_by_prime_powers(rank, divisors)
        assert FgAbGroup.from_divisors(rank, divisors) == expected

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))

    def test_strings(self):
        assert str(TRIVIAL) == "0"
        assert str(Z) == "Z"
        assert str(Z2) == "Z^2"
        assert str(FgAbGroup(1, (2,))) == "Z ⊕ Z/2"
        assert str(FgAbGroup(0, (2, 4))) == "Z/2 ⊕ Z/4"

    def test_direct_sum_and_power(self):
        assert Z.direct_sum(Z2) == Z3
        assert FgAbGroup(0, (2,)).direct_sum(FgAbGroup(0, (3,))) == FgAbGroup(0, (6,))
        assert FgAbGroup(0, (2,)).power(2) == FgAbGroup(0, (2, 2))
        assert Z3.power(0) == TRIVIAL


class TestSixTerm:
    def test_splice_example(self):
        k0, k1 = solve_six_term(SPLICE_SES)
        assert k0 == Z2
        assert k1 == Z

    def test_broken_heart_example(self):
        k0, k1 = solve_six_term(HEART_SES)
        assert k0 == TRIVIAL
        assert k1 == TRIVIAL

    def test_broken_heart_sign_irrelevant(self):
        flipped = TwoStrataSES(
            K0_I=TRIVIAL,
            K1_I=Z,
            K0_Q=Z,
            K1_Q=TRIVIAL,
            delta0=IntMatrix.from_rows([[-1]]),
            delta1=IntMatrix.zero(0, 0),
        )
        assert solve_six_term(flipped) == solve_six_term(HEART_SES)

    def test_zero_boundaries_split(self):
        s = TwoStrataSES(
            K0_I=Z,
            K1_I=Z2,
            K0_Q=Z3,
            K1_Q=Z,
            delta0=IntMatrix.zero(2, 3),
            delta1=IntMatrix.zero(1, 1),
        )
        k0, k1 = solve_six_term(s)
        assert k0 == FgAbGroup(4)
        assert k1 == FgAbGroup(3)

    def test_torsion_rejected(self):
        with pytest.raises(UnsupportedInputError):
            TwoStrataSES(
                K0_I=FgAbGroup(0, (2,)),
                K1_I=Z,
                K0_Q=Z,
                K1_Q=TRIVIAL,
                delta0=IntMatrix.from_rows([[1]]),
                delta1=IntMatrix.zero(0, 0),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TwoStrataSES(
                K0_I=TRIVIAL,
                K1_I=Z,
                K0_Q=Z,
                K1_Q=TRIVIAL,
                delta0=IntMatrix.zero(2, 1),
                delta1=IntMatrix.zero(0, 0),
            )

    def test_swap_property(self):
        rng = random.Random(13)
        for _ in range(30):
            r0i, r1i = rng.randint(0, 3), rng.randint(0, 3)
            r0q, r1q = rng.randint(0, 3), rng.randint(0, 3)
            d0 = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(r0q)] for _ in range(r1i)],
                cols=r0q,
            )
            d1 = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(r1q)] for _ in range(r0i)],
                cols=r1q,
            )
            s = TwoStrataSES(
                FgAbGroup(r0i), FgAbGroup(r1i), FgAbGroup(r0q), FgAbGroup(r1q), d0, d1
            )
            swapped = TwoStrataSES(
                FgAbGroup(r1i), FgAbGroup(r0i), FgAbGroup(r1q), FgAbGroup(r0q), d1, d0
            )
            k0, k1 = solve_six_term(s)
            k0s, k1s = solve_six_term(swapped)
            assert (k0s, k1s) == (k1, k0)


SPLICE_INCIDENCE = OneDStratified(
    edges=(
        EdgeStratum.make("a", 2, tail={"ab": 1, "aa": 1}, head={"aa": 1, "ba": 1}),
        EdgeStratum.make("b", 1, tail={"ba": 1}, head={"ab": 1}),
    ),
    vertex_classes=("ab", "ba", "aa"),
)


class TestVertexClassBoundary:
    def test_splice_incidence(self):
        assert vertex_class_boundary(SPLICE_INCIDENCE) == SPLICE_DELTA0

    def test_both_ends_same_class_cancel(self):
        strat = OneDStratified(
            edges=(EdgeStratum.make("e", 1, tail={"c": 1}, head={"c": 1}),),
            vertex_classes=("c",),
        )
        assert vertex_class_boundary(strat) == IntMatrix.from_rows([[0]])

    def test_single_positive_end(self):
        strat = OneDStratified(
            edges=(EdgeStratum.make("e", 1, tail={"d": 1}, head={"c": 1}),),
            vertex_classes=("c", "d"),
        )
        assert vertex_class_boundary(strat) == IntMatrix.from_rows([[1, -1]])

    def test_malformed_incidence(self):
        with pytest.raises(IncidenceError):
            OneDStratified(
                edges=(EdgeStratum.make("e", 1, tail={}, head={"c": 1}),),
                vertex_classes=("c",),
            )
        with pytest.raises(IncidenceError):
            OneDStratified(
                edges=(EdgeStratum.make("e", 0, tail={"c": 1}, head={"c": 1}),),
                vertex_classes=("c",),
            )
        with pytest.raises(IncidenceError):
            OneDStratified(
                edges=(EdgeStratum.make("e", 1, tail={"x": 1}, head={"c": 1}),),
                vertex_classes=("c",),
            )


class TestKHomology:
    def test_splice(self):
        k0h, k1h = k_homology(SPLICE_DELTA0)
        assert (k0h, k1h) == (Z2, Z)

    def test_zero_matrix(self):
        k0h, k1h = k_homology(IntMatrix.zero(2, 3))
        assert (k0h, k1h) == (Z3, Z2)

    def test_isomorphism_transposes(self):
        assert k_homology(IntMatrix.from_rows([[1]])) == (TRIVIAL, TRIVIAL)


class TestDuality:
    def test_splice_duality(self):
        rep = duality_check(Z2, Z, Z2, Z)
        assert rep.even_self_dual is True
        assert rep.odd_self_dual_rationally is False

    def test_all_trivial(self):
        rep = duality_check(TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL)
        assert rep.even_self_dual and rep.odd_self_dual_rationally

    def test_circle_like(self):
        rep = duality_check(Z, Z, Z, Z)
        assert rep.even_self_dual and rep.odd_self_dual_rationally


class TestPinch:
    def test_circle_three_points_two_sheets(self):
        k_m = (Z, Z)
        k_a = (Z3, TRIVIAL)
        assert pinch_k_theory(k_m, k_a, 2) == (FgAbGroup(4), Z)

    def test_trivial_split_set(self):
        k_m = (Z, Z)
        assert pinch_k_theory(k_m, (TRIVIAL, TRIVIAL), 2) == k_m

    def test_k_below_two_rejected(self):
        with pytest.raises(ParameterError):
            pinch_k_theory((Z, Z), (Z, TRIVIAL), 1)

    def test_oracle_matches_formula(self):
        for m in range(1, 6):
            for k in range(2, 5):
                formula = pinch_k_theory((Z, Z), (FgAbGroup(m), TRIVIAL), k)
                assert pinch_strata_oracle(m, k) == formula

    def test_oracle_specific_values(self):
        assert pinch_strata_oracle(3, 2) == (FgAbGroup(4), Z)
        assert pinch_strata_oracle(1, 3) == (Z3, Z)
        assert pinch_strata_oracle(0, 3) == (Z, Z)

    def test_rank_grows_linearly(self):
        ranks = [pinch_strata_oracle(m, 2)[0].rank for m in range(1, 9)]
        diffs = {b - a for a, b in zip(ranks, ranks[1:])}
        assert diffs == {1}


class TestSerialization:
    def test_round_trip(self):
        d = ses_to_dict(SPLICE_SES)
        assert ses_from_dict(d) == SPLICE_SES

    def test_delta1_defaults_to_zero(self):
        d = ses_to_dict(SPLICE_SES)
        del d["delta1"]
        assert ses_from_dict(d) == SPLICE_SES

    def test_torsion_group_parses_then_rejected(self):
        d = ses_to_dict(SPLICE_SES)
        d["K0_Q"] = {"rank": 3, "torsion": [2]}
        with pytest.raises(UnsupportedInputError):
            ses_from_dict(d)
