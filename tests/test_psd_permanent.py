import math

import numpy as np
import pytest

from gbsim import (
    CostLimitError,
    NumericalIntegrityError,
    ValidationError,
    embed,
    estimate_permanent,
    exact_permanent_psd,
)
from gbsim import psd_permanent


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    return g.conj().T @ g


class TestEmbed:
    def test_identity_spectrum(self):
        emb = embed(np.eye(3))
        assert emb.q == pytest.approx(1 / 0.9, rel=1e-14)
        assert np.allclose(emb.mus, 0.1, atol=1e-12)

    def test_diagonal_two_level(self):
        emb = embed(np.diag([1.0, 2.0]))
        assert emb.q == pytest.approx(2 / 0.9, rel=1e-14)
        assert np.allclose(sorted(emb.mus, reverse=True), [0.55, 0.1], atol=1e-12)
        vs = sorted((s.v_x for s in emb.states))
        assert vs[0] == pytest.approx(2 / 0.55 - 1, rel=1e-12)
        assert vs[1] == pytest.approx(19.0, rel=1e-12)

    def test_zero_matrix_flagged(self):
        emb = embed(np.zeros((3, 3)))
        assert emb.is_zero

    def test_reconstruction(self):
        h = random_psd(5, 1)
        emb = embed(h)
        recon = (emb.u * emb.eigenvalues[None, :]) @ emb.u.conj().T
        assert np.abs(recon - h).max() <= 1e-9 * np.abs(h).max()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            embed(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("headroom", [0.0, 1.0, -0.1, 1.5])
    def test_headroom_outside_open_unit_interval_rejected(self, headroom):
        with pytest.raises(ValidationError, match="headroom"):
            embed(np.eye(2), headroom=headroom)

    @pytest.mark.parametrize("call", [embed, lambda h, headroom: estimate_permanent(h, 100, 1, headroom=headroom)])
    @pytest.mark.parametrize("headroom", [True, "0.1", None])
    def test_headroom_must_be_a_number(self, call, headroom):
        with pytest.raises(ValidationError, match=f"^headroom must be a number, got {headroom!r}$"):
            call(np.eye(2), headroom=headroom)

    def test_numpy_headroom_is_bit_identical(self):
        h = random_psd(3, 4)
        want, got = embed(h, 0.1), embed(h, np.float64(0.1))
        assert got.q == want.q and np.array_equal(got.mus, want.mus) and got.states == want.states
        assert estimate_permanent(h, 4096, 3, headroom=np.float64(0.1)) == estimate_permanent(h, 4096, 3)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            embed(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            embed(np.ones((2, 3)))

    def test_negative_definite_rejected(self):
        with pytest.raises(ValidationError):
            embed(np.diag([1.0, -0.5]))

    def test_reconstruction_error_raises(self, monkeypatch):
        # an integrity check no accepted input trips: forced by a negative tolerance
        monkeypatch.setattr(psd_permanent, "_RECON_TOL", -1.0)
        with pytest.raises(ValidationError, match="eigendecomposition reconstruction error .* too large") as exc:
            embed(random_psd(3, 2))
        assert exc.type is ValidationError


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "-inf-j"])
@pytest.mark.parametrize("call", [embed, lambda h: estimate_permanent(h, 100, 0), exact_permanent_psd], ids=["embed", "estimate_permanent", "exact_permanent_psd"])
def test_non_finite_entry_rejected(call, value):
    h = np.eye(3, dtype=complex)
    h[1, 2] = h[2, 1] = value
    with pytest.raises(ValidationError, match="non-finite"):
        call(h)


class TestEstimate:
    def test_diagonal_matrix(self):
        d = np.array([0.5, 1.5, 2.0])
        res = estimate_permanent(np.diag(d), 150_000, seed=3)
        assert res.exact == pytest.approx(float(np.prod(d)), rel=1e-12)
        assert abs(res.estimate - res.exact) < 5 * res.stderr

    def test_rank_one_all_ones(self):
        res = estimate_permanent(np.ones((2, 2)), 150_000, seed=4)
        assert res.exact == pytest.approx(2.0, rel=1e-12)
        assert abs(res.estimate - 2.0) < 5 * res.stderr

    def test_random_psd_matches_ryser(self):
        h = random_psd(4, 5)
        res = estimate_permanent(h, 300_000, seed=6)
        assert res.count > 0
        assert abs(res.estimate - res.exact) < 5 * res.stderr

    def test_zero_matrix(self):
        res = estimate_permanent(np.zeros((2, 2)), 1000, seed=7)
        assert res.estimate == 0.0
        assert res.exact == 0.0

    def test_low_confidence_flag(self):
        # tiny shot budget: the all-ones pattern is rarely (if ever) seen
        res = estimate_permanent(random_psd(4, 8), 50, seed=9)
        assert res.low_confidence

    def test_zero_shot_budget_rejected(self):
        with pytest.raises(ValidationError):
            estimate_permanent(random_psd(3, 9), 0, seed=0)

    def test_size_limit(self):
        estimate_permanent(np.eye(24), 10, seed=0)
        with pytest.raises(ValidationError, match="n <= 24"):
            estimate_permanent(np.eye(25), 10, seed=0)

    def test_size_limit_checked_before_embed(self, monkeypatch):
        # an oversized input never reaches the eigendecomposition
        monkeypatch.setattr(psd_permanent, "embed", lambda *a, **k: pytest.fail("embed called"))
        with pytest.raises(ValidationError, match="n <= 24, got 1500"):
            estimate_permanent(np.eye(1500), 10, seed=0)

    def test_equal_for_every_worker_count(self):
        runs = [estimate_permanent(random_psd(6, 14), 50_000, seed=15, workers=w) for w in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]


class TestWeightEstimator:
    """The mean per-shot all-ones probability, at sizes where the all-ones
    pattern itself is almost never hit, against exact and closed forms."""

    SHOTS = 200_000

    @pytest.mark.parametrize("n", [12, 16])
    def test_wishart_unflagged_within_5_sigma(self, n):
        h = random_psd(n, 30 + n)
        res = estimate_permanent(h, self.SHOTS, seed=n)
        assert not res.low_confidence
        assert abs(res.estimate - exact_permanent_psd(h)) < 5 * res.stderr

    @pytest.mark.parametrize("n", [20, 24])
    def test_rank_one_closed_form(self, n):
        # per(a a^dag) = n! prod |a_i|^2
        rng = np.random.default_rng(50 + n)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expect = math.factorial(n) * math.prod(np.abs(a) ** 2)
        res = estimate_permanent(np.outer(a, a.conj()), self.SHOTS, seed=n)
        assert not res.low_confidence
        assert res.stderr < 0.01 * expect
        assert abs(res.estimate - expect) < 5 * res.stderr

    # small d_j make w a product of nearly independent exponential factors whose
    # relative variance grows like 2^n; the sample then understates its own error
    # bar, so the flag must catch the run.  The last case read 8.5 sigma low
    # with an effective sample size of 150.
    @pytest.mark.parametrize(
        "n, seed, low",
        [(4, 1, 0.1), (12, 2, 0.1), (16, 3, 0.001), (20, 4, 0.001), (24, 5, 0.1), (24, 1000 * 24 + 10, 0.01)],
    )
    def test_diagonal_flagged_or_within_5_sigma(self, n, seed, low):
        d = np.random.default_rng(seed).uniform(low, 2.0, n)
        res = estimate_permanent(np.diag(d), self.SHOTS, seed=seed % 1000)
        assert res.low_confidence or abs(res.estimate - math.prod(d)) < 5 * res.stderr


class TestExact:
    def test_identity(self):
        assert exact_permanent_psd(np.eye(5)) == pytest.approx(1.0, abs=0)

    def test_diagonal(self):
        d = [0.3, 1.7, 2.5, 0.9]
        assert exact_permanent_psd(np.diag(d)) == pytest.approx(float(np.prod(d)), rel=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h = np.outer(a, a.conj())
        expect = math.factorial(4) * float(np.prod(np.abs(a) ** 2))
        assert exact_permanent_psd(h) == pytest.approx(expect, rel=1e-11)

    @pytest.mark.parametrize("q", [2.0, 10.0])
    def test_scaling_law(self, q):
        h = random_psd(4, 11)
        lhs = exact_permanent_psd(q * h)
        rhs = q**4 * exact_permanent_psd(h)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_permutation_invariance(self):
        h = random_psd(5, 12)
        perm = np.random.default_rng(13).permutation(5)
        ref = exact_permanent_psd(h)
        assert exact_permanent_psd(h[np.ix_(perm, perm)]) == pytest.approx(ref, rel=1e-11)

    def test_positivity(self):
        for seed in range(5):
            assert exact_permanent_psd(random_psd(4, 20 + seed)) >= 0.0

    def test_cost_limit(self):
        with pytest.raises(CostLimitError):
            exact_permanent_psd(np.eye(25))

    @pytest.mark.parametrize(
        "value, error, message",
        [(1 + 1e-3j, NumericalIntegrityError, "imaginary residue"), (-1.0, ValidationError, "is negative")],
    )
    def test_residue_and_sign_checks(self, monkeypatch, value, error, message):
        # a Hermitian matrix's permanent is real, so a residue is a defect;
        # the sign is the input's, as only hermiticity is checked
        monkeypatch.setattr(psd_permanent, "permanent", lambda h: complex(value))
        with pytest.raises(error, match=message):
            exact_permanent_psd(np.eye(2))

    def test_imaginary_residue_exits_1_in_the_cli(self, monkeypatch, tmp_path, capsys):
        from gbsim.cli import main

        monkeypatch.setattr(psd_permanent, "permanent", lambda h: 1 + 1e-3j)
        (tmp_path / "h.txt").write_text("1 0\n0 1\n")
        assert main(["permanent-psd", "--matrix", str(tmp_path / "h.txt"), "--shots", "10", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "gbsim: error: permanent of PSD matrix has imaginary residue 1.000e-03\n"
