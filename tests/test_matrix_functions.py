import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gbsim.matrix_functions as matrix_functions
from gbsim import (
    CostLimitError,
    NumericalIntegrityError,
    ValidationError,
    hafnian,
    permanent,
)
from permutil import hafnian_naive, permanent_low_rank, permanent_naive

# 0 or |x| >= 2^-20, so every permanent of a 4x4 is 0 or normal; subnormal entries are TestFloatRange's
finite = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False).map(lambda x: x if abs(x) >= 2**-20 else 0.0)


def complex_square(n):
    return st.tuples(
        arrays(np.float64, (n, n), elements=finite),
        arrays(np.float64, (n, n), elements=finite),
    ).map(lambda t: t[0] + 1j * t[1])


class TestPermanent:
    def test_2x2(self):
        assert permanent([[1, 2], [3, 4]]) == pytest.approx(10 + 0j, abs=0)

    def test_all_ones_3x3(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6 + 0j, abs=0)

    def test_empty_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_matches_naive_on_random_complex(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        exact = permanent_naive(a)
        assert abs(permanent(a) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("n", [1, 3, 6, 7])
    def test_matches_naive_across_sizes(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        exact = permanent_naive(a)
        assert abs(permanent(a) - exact) <= 1e-11 * max(abs(exact), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(complex_square(4), st.floats(min_value=0.1, max_value=3.0))
    def test_row_scaling_law(self, a, q):
        # per(q A) = q^n per(A)
        lhs = permanent(q * a)
        rhs = q ** a.shape[0] * permanent(a)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_psd_permanent_is_real_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            gmat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = gmat.conj().T @ gmat
            val = permanent(h)
            scale = float(np.abs(h).max()) ** 4
            assert abs(val.imag) <= 1e-10 * scale
            assert val.real >= -1e-10 * scale

    @pytest.mark.parametrize("t", [1e-5, 1e-20, 1e-50])
    def test_dominant_column(self, t):
        # per(A_t) = 24 t^4 + 18i t^3 with no cancellation, column 0 holding i + t in three rows:
        # Glynn's column sums keep it, where power-of-two row scaling was off by 4e-7 to 5e83
        a = np.array([[1j + t, t, t, t]] * 3 + [[t, t, t, t]])
        exact = 24 * t**4 + 18j * t**3
        assert abs(permanent(a) - exact) <= 1e-14 * abs(exact)

    def test_cost_limit(self):
        with pytest.raises(CostLimitError):
            permanent(np.zeros((25, 25)))

    def test_all_ones_22_is_factorial(self):
        # an alternating subset sum (Ryser) misses this by 4.6e-6
        exact = math.factorial(22)
        assert abs(permanent(np.ones((22, 22))) - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("n", [13, 14, 15, 16, 20])
    def test_rank_one_closed_form(self, n):
        # per(v v^dagger) = n! prod |v_i|^2; n = 13..16, 20 run 1, 2, 4, 8, 128 high-sign vectors
        v = np.exp(2j * np.pi * np.random.default_rng(n).random(n))
        exact = math.factorial(n)
        assert abs(permanent(np.outer(v, v.conj())) - exact) <= 1e-11 * exact

    def test_no_per_step_temporary(self):
        # the (n, 2^12) low table is 1.25 MiB at n = 20; a per-step
        # temporary of that size would take the peak to about 2.7 MiB
        a = np.random.default_rng(5).standard_normal((20, 20)) + 0j
        permanent(a)  # fills the sign-table caches
        tracemalloc.start()
        try:
            permanent(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20

    def test_naive_guard(self):
        with pytest.raises(CostLimitError):
            permanent_naive(np.zeros((10, 10)))


class TestHafnian:
    def test_single_pair(self):
        assert hafnian([[0, 2 + 1j], [2 + 1j, 0]]) == pytest.approx(2 + 1j, abs=0)

    def test_three_matchings(self):
        a = np.ones((4, 4))
        assert hafnian(a) == pytest.approx(3 + 0j, abs=0)

    def test_empty_is_one(self):
        assert hafnian(np.zeros((0, 0))) == 1.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError):
            hafnian(np.ones((3, 3)))

    def test_diagonal_ignored(self):
        a = np.ones((4, 4))
        b = a + np.diag([9, 9, 9, 9])
        assert hafnian(a) == hafnian(b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_block_form_equals_permanent(self, n):
        # haf([[0, P], [P^T, 0]]) = per(P)
        rng = np.random.default_rng(n)
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = np.zeros((n, n))
        blk = np.block([[z, p], [p.T, z]])
        exact = permanent(p)
        assert abs(hafnian(blk) - exact) <= 1e-11 * max(abs(exact), 1.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = b + b.T
        perm = rng.permutation(6)
        ref = hafnian(b)
        assert abs(hafnian(b[np.ix_(perm, perm)]) - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_cost_limit(self):
        with pytest.raises(CostLimitError):
            hafnian(np.zeros((22, 22)))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_matches_naive_on_random_complex_symmetric(self, n):
        rng = np.random.default_rng(40 + n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = b + b.T
        exact = hafnian_naive(b)
        assert abs(hafnian(b) - exact) <= 1e-12 * abs(exact)

    def test_all_ones_20_is_double_factorial(self):
        assert hafnian(np.ones((20, 20))) == math.prod(range(1, 20, 2))

    def test_naive_guard(self):
        with pytest.raises(CostLimitError):
            hafnian_naive(np.zeros((12, 12)))


@pytest.mark.parametrize("kernel, n", [(permanent, 14), (hafnian, 12)])
def test_read_only_input_and_cached_tables(kernel, n):
    # the first call builds the cached index tables, later calls reuse them
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a.flags.writeable = False
    before = a.copy()
    matrix_functions._sign_table.cache_clear()
    matrix_functions._matching_schedule.cache_clear()
    first = kernel(a)
    assert kernel(a) == first
    assert np.array_equal(a, before)


_SPREAD_5 = np.diag([1e300] * 5 + [1e-301] * 5)


def _subnormal_entries():
    # the 4x4 of entries 2^-1032 plus i at (0, 1), (0, 2) and (1, 0): per = 10^-620.7
    a = np.full((4, 4), 2.0**-1032, dtype=complex)
    a[[0, 0, 1], [1, 2, 0]] += 1j
    return a


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")  # numpy's, on the way
@pytest.mark.parametrize(
    "kernel, a, value",
    [
        (permanent, 1e38 * np.eye(8), 1e304),
        (permanent, 1e40 * np.eye(8), None),  # per = 1e320 was returned as nan+nanj
        (permanent, np.stack([np.eye(3), 1e200 * np.eye(3)]), None),
        (hafnian, 1e37 * np.ones((8, 8)), 105e148),
        (hafnian, 1e80 * np.ones((8, 8)), None),
        # values in range from entries across it: 0j and nan+nanj before
        (hafnian, np.block([[np.zeros((10, 10)), _SPREAD_5], [_SPREAD_5, np.zeros((10, 10))]]), 1e-5),
        (permanent, np.diag([1e300] * 12 + [1e-301] * 12), 1e-12),
    ],
    ids=["permanent-1e304", "permanent-1e320", "permanent-stack", "hafnian-1e150", "hafnian-1e322", "hafnian-D-block", "permanent-diag-spread"],
)
def test_value_outside_the_float_range_raises(kernel, a, value):
    if value is not None:
        assert kernel(a) == pytest.approx(value, rel=1e-14)
    else:
        with pytest.raises(NumericalIntegrityError, match=f"^{kernel.__name__} of {a.shape[-1]}x{a.shape[-1]} is not finite: "):
            kernel(a)


class TestStacks:
    """A (P, n, n) stack gives each matrix's own kernel value, bit for bit."""

    @pytest.mark.parametrize("kernel, sizes", [(permanent, [0, 1, 2, 5, 9, 13, 14, 15, 16]), (hafnian, [0, 2, 4, 8, 12])])
    def test_stack_equals_per_matrix_calls(self, kernel, sizes):
        rng = np.random.default_rng(77)
        for n in sizes:
            stack = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
            out = kernel(stack)
            assert out.shape == (7,) and out.dtype == complex
            assert out.tolist() == [kernel(a) for a in stack]

    @pytest.mark.parametrize("kernel", [permanent, hafnian])
    def test_empty_stack(self, kernel):
        assert kernel(np.zeros((0, 4, 4))).shape == (0,)

    def test_stack_of_empty_matrices_is_ones(self):
        assert permanent(np.zeros((3, 0, 0))).tolist() == [1, 1, 1]
        assert hafnian(np.zeros((3, 0, 0))).tolist() == [1, 1, 1]

    def test_stack_limits_and_shapes(self):
        with pytest.raises(CostLimitError):
            permanent(np.zeros((2, 25, 25)))
        with pytest.raises(CostLimitError):
            hafnian(np.zeros((2, 22, 22)))
        with pytest.raises(ValidationError):
            hafnian(np.ones((2, 3, 3)))
        for bad in (np.ones((2, 3, 4)), np.ones((1, 2, 2, 2)), np.ones(3)):
            with pytest.raises(ValidationError):
                permanent(bad)
            with pytest.raises(ValidationError):
                hafnian(bad)


@pytest.mark.parametrize("b", [np.ones((21, 21)), np.ones((2, 21, 21))], ids=["matrix", "stack"])
def test_odd_dimension_is_checked_before_the_cost_limit(b):
    # shape, then odd dimension, then the cost limit: a 21x21 hafnian is invalid input (CLI exit 1), not a cost (exit 2)
    with pytest.raises(ValidationError, match="^hafnian requires even dimension, got 21$"):
        hafnian(b)


class TestFloatRange:
    """A value below or above the normal float range raises; one within it keeps the bits
    of the unscaled evaluation, however far its entries are from 1."""

    def test_scaled_identities_at_the_edges_of_the_range(self):
        # per(c I24) = c^24 = 10^(+-288); 1.47e-14 is Glynn's own roundoff at c = 1e12
        values = permanent(np.stack([1e12 * np.eye(24), 1e-12 * np.eye(24)]))
        for v, c in zip(values, (1e12, 1e-12)):
            exact = Fraction(c) ** 24
            assert v.imag == 0 and abs(Fraction(v.real) - exact) <= Fraction(2e-14) * exact

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "kernel, a, message",
        [
            (permanent, 1e13 * np.eye(24), "is not finite: "),
            (permanent, 1e-13 * np.eye(24), r"is 10\^-312.0, below the float range"),
            (permanent, 1e-14 * np.eye(24), r"is 10\^-336.0, below the float range"),  # returned 0j
            (hafnian, 1e30 * np.ones((20, 20)), "is not finite: "),
            (hafnian, 1e-32 * np.ones((20, 20)), r"is 10\^-311.2, below the float range"),  # returned a subnormal
            (permanent, np.diag([1, 1e-200, 1e-200]), r"is 10\^-400.0, below the float range"),  # returned 0j
            (permanent, _subnormal_entries(), r"is 10\^-620.7, below the float range"),
        ],
        ids=["per-1e13", "per-1e-13", "per-1e-14", "haf-1e30", "haf-1e-32", "per-diag-1e-400", "per-subnormal-entries"],
    )
    def test_values_outside_the_range_raise(self, kernel, a, message):
        n = a.shape[-1]
        with pytest.raises(NumericalIntegrityError, match=f"^{kernel.__name__} of {n}x{n} {message}"):
            kernel(a)

    @pytest.mark.parametrize("c", [1e25, 1e-25])
    def test_all_ones_hafnian_across_the_range(self, c):
        exact = c**10 * math.prod(range(1, 20, 2))
        assert hafnian(c * np.ones((20, 20))) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "kernel, n, k",
        [(permanent, 8, 124), (permanent, 16, -63), (hafnian, 8, 252), (hafnian, 20, -102)],
    )
    def test_power_of_two_scaling_keeps_the_bits(self, kernel, n, k):
        # scaling by 2^k is exact, so 2^k A's value is A's times 2^(d k), bit for bit, near either end of the range
        rng = np.random.default_rng(n)
        a = rng.uniform(0.5, 1.0, (3, n, n)) + 0.1j * rng.uniform(-1.0, 1.0, (3, n, n))
        d = n if kernel is permanent else n // 2
        want = [complex(np.ldexp(w.real, d * k), np.ldexp(w.imag, d * k)) for w in kernel(a)]
        assert kernel(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)).tolist() == want

    def test_products_that_overflow_unscaled(self):
        # per(c 1_8) = 8! c^8 = 1e307, but Glynn's unscaled column product (8c)^8 = 4e309 is past the range (nan before)
        c = (1e307 / math.factorial(8)) ** (1 / 8)
        assert permanent(c * np.ones((8, 8))) == pytest.approx(1e307, rel=1e-13, abs=0)

    def test_each_matrix_of_a_stack_is_checked_alone(self):
        # a value is its own matrix's, whatever else the stack holds
        stack = np.stack([1e-25 * np.eye(12), 1e25 * np.eye(12)])
        values = permanent(stack)
        assert values.tolist() == [permanent(m) for m in stack]
        assert values == pytest.approx([1e-300, 1e300], rel=1e-14, abs=0)
        # per(1e-200 I2) = 1e-400 raises, alone or beside I2
        for a in (1e-200 * np.eye(2), np.stack([np.eye(2), 1e-200 * np.eye(2)])):
            with pytest.raises(NumericalIntegrityError, match=r"^permanent of 2x2 is 10\^-400.0, below the float range"):
                permanent(a)
        # per(1e-39 I8) = 1e-312 raises beside I8, whose largest entry kept the stack's max in range
        with pytest.raises(NumericalIntegrityError, match=r"^permanent of 8x8 is 10\^-312.0, below the float range"):
            permanent(np.stack([np.eye(8), 1e-39 * np.eye(8)]))

    def test_the_hafnian_diagonal_sets_no_scale(self):
        # the diagonal is never read: dividing by 1e40's power of two would take the products of ten ones to 2^-1330
        assert hafnian(np.ones((20, 20)) + 1e40 * np.eye(20)) == math.prod(range(1, 20, 2))
        assert hafnian(np.ones((4, 4)) + 1e300 * np.eye(4)) == 3
        with pytest.raises(NumericalIntegrityError, match=r"^hafnian of 20x20 is 10\^-311.2, below the float range"):
            hafnian(1e-32 * np.ones((20, 20)) + 1e40 * np.eye(20))

    def test_entries_far_apart_keep_the_unscaled_value(self):
        # haf = 15 c + 90 with one pair at c = 1e300: divided by c's power of two, the products of
        # four ones would read 0, but a value in range is the unscaled evaluation's
        b = np.ones((8, 8))
        b[0, 1] = b[1, 0] = 1e300
        assert hafnian(b) == pytest.approx(1.5e301, rel=1e-15, abs=0)
        assert permanent(np.diag([1e300, 1e-300, 1e-300])) == pytest.approx(1e-300, rel=1e-15, abs=0)

    def test_a_value_bounded_below_every_float_raises(self):
        # per(c 1_4) = 24 c^4 = 2.4e-803 and haf(c 1_4) = 3 c^2 = 3e-402 at c = 1e-201: both were read as 0
        with pytest.raises(NumericalIntegrityError, match=r"^permanent of 4x4 is 10\^-802.6, below the float range"):
            permanent(1e-201 * np.ones((4, 4)))
        with pytest.raises(NumericalIntegrityError, match=r"^hafnian of 4x4 is 10\^-401.5, below the float range"):
            hafnian(1e-201 * np.ones((4, 4)))

    @pytest.mark.parametrize("diagonal, value", [([1e200, 1e-200], 1.0), ([1e200, 1e200, 1e-200], 1e200)])
    def test_no_entry_is_divided_below_the_range(self, diagonal, value):
        # dividing the whole matrix by 1e200's power of two, 2^665, would take 1e-200 to 1e-400:
        # each column is divided by its own largest entry's
        assert permanent(np.diag(diagonal)) == pytest.approx(value, rel=1e-15, abs=0)


class TestSpreadRows:
    """Glynn on rows far apart in scale, where it is wrong without an error
    today (ROADMAP item 4).  The xfails are strict: the fix must flip them."""

    @staticmethod
    def _rows_1_to_6_scaled():
        # a 7x7 complex Gaussian B with rows 1-6 scaled by 1e-3, so per(D B) = prod(d) per(B)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        d = np.array([1.0] + [1e-3] * 6)
        return b, d[:, None] * b, math.prod(d)

    def test_the_reference_holds(self):
        # Glynn on B and the naive sum on D B both agree with prod(d) per(B): the value is well conditioned
        b, a, scale = self._rows_1_to_6_scaled()
        per_b = permanent_naive(b)
        assert abs(permanent(b) - per_b) <= 1e-14 * abs(per_b)
        assert abs(permanent_naive(a) - scale * per_b) <= 1e-14 * abs(scale * per_b)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: Glynn is off by 0.51 relative on rows 1-6 scaled by 1e-3")
    def test_rows_scaled_by_1e_3(self):
        b, a, scale = self._rows_1_to_6_scaled()
        want = scale * permanent_naive(b)
        assert abs(permanent(a) - want) <= 1e-12 * abs(want)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: per = 1e-400 is returned as 0j, as every column sum loses 1e-200 beside 1")
    def test_a_value_below_the_range_from_spread_rows_raises(self):
        with pytest.raises(NumericalIntegrityError, match=r"10\^-400.0"):
            permanent([[1, 1e-200], [1e-200, 0]])


class TestLowRankReference:
    """`permanent_low_rank`, the tests' exact permanent of V V^dag for an n x r matrix V."""

    @pytest.mark.parametrize("n, r", [(12, 2), (16, 3), (20, 4)])
    def test_equals_glynn(self, n, r):
        rng = np.random.default_rng(100 * n + r)
        v = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(2)
        exact = permanent_low_rank(v)
        assert permanent(v @ v.conj().T) == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [24, 36, 48])
    def test_rank_one_past_the_cost_limit(self, n):
        # per(v v^dag) = n! prod |v_i|^2
        rng = np.random.default_rng(n)
        v = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
        exact = math.factorial(n) * math.prod(abs(x) ** 2 for x in v)
        assert permanent_low_rank(v[:, None]) == pytest.approx(exact, rel=1e-13, abs=0)
