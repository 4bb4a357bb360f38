import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gbsim.matrix_functions as matrix_functions
from gbsim import (
    CostLimitError,
    ValidationError,
    hafnian,
    permanent,
)
from permutil import hafnian_naive, permanent_naive

finite = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


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
