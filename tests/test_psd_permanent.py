import dataclasses
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
from gbsim.matrix_functions import hafnian
from permutil import permanent_low_rank


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
        assert np.allclose(emb.eigenvalues, [1.0, 2.0], rtol=1e-14, atol=0)
        # thermal modes of mean photon number d / (q - d): quadrature variances 1 + 2 nbar = 2/mu - 1
        nbar = np.sort(emb.eigenvalues / (emb.q - emb.eigenvalues))
        assert 1 + 2 * nbar[0] == pytest.approx(2 / 0.55 - 1, rel=1e-12)
        assert 1 + 2 * nbar[1] == pytest.approx(19.0, rel=1e-12)

    def test_zero_matrix_flagged(self):
        # the one path from eigh: the zero matrix embeds as vacuum at q = 1
        emb = embed(np.zeros((3, 3)))
        assert not emb.eigenvalues.any()
        assert emb.q == 1.0 and (emb.mus == 1.0).all()

    def test_fields(self):
        # the instance is its eigendecomposition and scale: the thermal inputs follow from them, and no field repeats them
        assert [f.name for f in dataclasses.fields(psd_permanent.ThermalEmbedding)] == ["h", "u", "eigenvalues", "q", "mus"]

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

    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
    @pytest.mark.parametrize("call", [embed, lambda h, headroom: estimate_permanent(h, 100, 1, headroom=headroom)], ids=["embed", "estimate_permanent"])
    @pytest.mark.parametrize("headroom", [5e-17, 2.0**-54])
    def test_headroom_lost_beside_one_rejected(self, call, headroom):
        # 1 - headroom rounds to 1: q was max(d), so a mu was 0 and its thermal variance inf
        with pytest.raises(ValidationError, match=rf"^headroom must be in \(0, 1\), with 1 - headroom below 1, got {headroom}$"):
            call(np.eye(2), headroom=headroom)

    @pytest.mark.filterwarnings("error")
    def test_prod_mu_below_the_float_range(self):
        # prod(mu) = (1e-15)^23 underflows to 0, so q^n / prod(mu) read inf and its product with a 0 mean nan;
        # carried as an exponent it is finite, and the zero row's all-zero weights read 0 with the low-confidence flag
        h = np.diag([1.0] * 23 + [0.0])
        assert np.prod(embed(h, headroom=1e-15).mus) == 0.0
        res = estimate_permanent(h, 2000, 1, headroom=1e-15)
        assert (res.estimate, res.stderr, res.low_confidence) == (0.0, 0.0, True)

    @pytest.mark.parametrize("call", [embed, lambda h, headroom: estimate_permanent(h, 100, 1, headroom=headroom)])
    @pytest.mark.parametrize("headroom", [True, "0.1", None])
    def test_headroom_must_be_a_number(self, call, headroom):
        with pytest.raises(ValidationError, match=f"^headroom must be a number, got {headroom!r}$"):
            call(np.eye(2), headroom=headroom)

    def test_numpy_headroom_is_bit_identical(self):
        h = random_psd(3, 4)
        want, got = embed(h, 0.1), embed(h, np.float64(0.1))
        assert got.q == want.q and np.array_equal(got.mus, want.mus) and np.array_equal(got.eigenvalues, want.eigenvalues)
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

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
    @pytest.mark.parametrize(
        "h, refusal",
        [
            (random_psd(3, 9), None),
            (np.diag([1.0, -1e-10]), None),
            (np.diag([1.0, -1e-8]), "not PSD"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "not PSD"),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
            (np.array([[1.0, 1e-6], [0.0, 1.0]]), "not Hermitian"),
        ],
        ids=["wishart", "eigenvalue-above-floor", "eigenvalue-below-floor", "indefinite", "triangular", "off-by-1e-6"],
    )
    def test_checks_judge_every_scale_alike(self, h, refusal, c):
        # per(c h) = c^n per(h): both checks are relative to the largest |entry|, so no scale turns them absolute
        if refusal is not None:
            with pytest.raises(ValidationError, match=refusal):
                embed(c * h)
        else:
            np.testing.assert_allclose(embed(c * h).mus, embed(h).mus, rtol=0, atol=1e-12)

    def test_reconstruction_error_raises(self, monkeypatch):
        # an integrity check no accepted input trips: forced by a negative tolerance
        monkeypatch.setattr(psd_permanent, "_RECON_TOL", -1.0)
        with pytest.raises(ValidationError, match="eigendecomposition reconstruction error .* too large") as exc:
            embed(random_psd(3, 2))
        assert exc.type is ValidationError


_CHECKED_CALLS = [embed, lambda h: estimate_permanent(h, 100, 0), exact_permanent_psd]
_CHECKED_IDS = ["embed", "estimate_permanent", "exact_permanent_psd"]


@pytest.mark.parametrize("h", [1e-12 * np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-6 * np.array([[1.0, 1e-6], [0.0, 1.0]])], ids=["1e-12", "1e-6"])
@pytest.mark.parametrize("call", _CHECKED_CALLS, ids=_CHECKED_IDS)
def test_non_hermitian_below_scale_1_rejected(call, h):
    # each asymmetry is 1e-12, inside an absolute 1e-10: only a bound relative to the largest |entry| refuses them
    with pytest.raises(ValidationError, match="not Hermitian"):
        call(h)


@pytest.mark.parametrize("call", _CHECKED_CALLS[:2], ids=_CHECKED_IDS[:2])
def test_indefinite_below_scale_1_rejected(call):
    # eigenvalue -1e-12 is above an absolute floor of -1e-9: only a floor relative to the largest |entry| refuses it
    with pytest.raises(ValidationError, match="negative eigenvalue .* not PSD"):
        call(1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "-inf-j"])
@pytest.mark.parametrize("call", _CHECKED_CALLS, ids=_CHECKED_IDS)
def test_non_finite_entry_rejected(call, value):
    h = np.eye(3, dtype=complex)
    h[1, 2] = h[2, 1] = value
    with pytest.raises(ValidationError, match="non-finite"):
        call(h)


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
@pytest.mark.parametrize("h", [1e200 * np.eye(2), 1e13 * np.eye(24), 1e-13 * np.eye(24)], ids=["1e200-I2", "1e13-I24", "1e-13-I24"])
def test_rescale_outside_the_float_range_raises(h):
    # per = 1e400, 1e312 and 1e-312: 1e200 I2 ended in an OverflowError, and the last, below the normal
    # range, read a subnormal or 0; per >= prod(h_ii) past the top raises whatever the sample's mean
    with pytest.raises(NumericalIntegrityError, match=r"^(permanent of \d+x\d+ is at least prod\(h_ii\) >= 2\^\d+, outside|estimate of a \d+x\d+ permanent is 10\^-\d+\.\d, below) the float range$"):
        estimate_permanent(h, 100, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e12, 1e-12])
def test_rescale_of_a_representable_permanent(c):
    # per(c I24) = c^24 fits, although q^n / prod(mu) is about 1.2e313 at c = 1e12; the embedded
    # instance is the identity's at every c, so the estimate scales as c^24 and is flagged as the ESS says
    res, ref = estimate_permanent(c * np.eye(24), 20_000, 1), estimate_permanent(np.eye(24), 20_000, 1)
    assert res.estimate == pytest.approx(ref.estimate * c**24, rel=1e-12, abs=0)
    assert res.stderr == pytest.approx(ref.stderr * c**24, rel=1e-12, abs=0)
    assert (res.count, res.low_confidence) == (ref.count, ref.low_confidence)


@pytest.mark.filterwarnings("error")
def test_subnormal_diagonal_product_sets_no_floor():
    # rank one v v^dag at n = 24 with prod |v_i|^2 = 1e-320, a subnormal: the Marcus floor prod(h_ii) <= per(h)
    # refuses only at the top of the range, so per = 24! prod |v_i|^2 = 6.2e-297 is estimated and returned
    n = 24
    v = np.full(n, 10.0 ** (-320 / (2 * n)))
    res = estimate_permanent(np.outer(v, v), 20_000, 1)
    want = math.exp(math.lgamma(n + 1) + 2 * n * math.log(v[0]))
    assert not res.low_confidence
    assert abs(res.estimate - want) < 5 * res.stderr


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

    def test_zero_matrix_is_never_flagged(self):
        # a Python bool, as the CLI prints "no" for it and "False" for a numpy bool
        assert estimate_permanent(np.zeros((3, 3)), 1000, seed=7).low_confidence is False

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


@pytest.mark.parametrize("headroom", [1e-10, 1e-15])
def test_all_zero_sample_of_a_positive_diagonal_refused(headroom):
    # per(I24) = 1: every thermal mode has nbar of about 1/headroom, every all-ones weight underflows,
    # and the sample read 0 +- 0 (flagged) or hit the sampler's photon cap; Marcus gives per >= prod(h_ii) > 0
    with pytest.raises(NumericalIntegrityError, match=f"^all-ones weights of mean 0, .*: headroom {headroom} is too small"):
        estimate_permanent(np.eye(24), 2000, 1, headroom=headroom)


@pytest.mark.parametrize("headroom", [0.1, 1e-10])
@pytest.mark.parametrize("h", [np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0])], ids=["zero", "zero-diagonal-entry"])
def test_zero_permanent_reads_exactly_0(h, headroom):
    res = estimate_permanent(h, 2000, 1, headroom=headroom)
    assert (res.estimate, res.stderr, res.exact) == (0.0, 0.0, 0.0)


class TestDimModes:
    """Eigenvalues many decades below the largest: each is drawn at its own mean
    photon number d_j / (q - d_j), not through a thermal variance 2/mu - 1 that
    rounds 1 - mu."""

    def test_dim_diagonal_entry_scales_the_estimate(self):
        # per(diag(1, d)) = d, and the dim mode's draw scales with d alone, so estimate / d is one number;
        # through the variances it read +4.4 error bars off at d = 1e-14 and -6.8 at 1e-15
        runs = [(d, estimate_permanent(np.diag([1.0, d]), 10**6, 3)) for d in (1e-12, 1e-14, 1e-15)]
        ratios = [res.estimate / d for d, res in runs]
        assert max(ratios) - min(ratios) <= 1e-9 * ratios[0]
        for d, res in runs:
            assert not res.low_confidence and abs(res.estimate - d) <= 4 * res.stderr

    @pytest.mark.parametrize("seed", range(6))
    def test_spread_wishart_within_4_sigma(self, seed):
        # D W D with D = logspace(0, -7.5) spans 15 decades of eigenvalues; seeds 2 and 3 read 7.1 and 5.8 error bars off
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        d = np.logspace(0, -7.5, 4)
        res = estimate_permanent(d[:, None] * (g @ g.conj().T / 8) * d, 10**5, seed)
        assert not res.low_confidence
        assert abs(res.estimate - res.exact) <= 4 * res.stderr


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

    @pytest.mark.filterwarnings("error")
    def test_entries_across_the_float_range(self):
        # the roundoff scale max|h|^n = 1e400 overflowed as a Python float
        assert exact_permanent_psd(np.diag([1e200, 1e-200])) == pytest.approx(1.0, rel=1e-15, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h, power", [(np.diag([1e-200, 1e-200]), "-400.0"), (1e-30 * np.eye(12), "-360.0")])
    def test_underflow_below_a_positive_diagonal_raises(self, h, power):
        # the scaled permanent is normal, so the kernel judges it times the carried 4^(sum k)
        n = len(h)
        with pytest.raises(NumericalIntegrityError, match=rf"^permanent of {n}x{n} is 10\^{power}, below the float range$"):
            exact_permanent_psd(h)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_not_named_an_underflow(self):
        # per = 1e400, past the top: not finite, as the kernel names every value past the range
        with pytest.raises(NumericalIntegrityError, match=r"^permanent of 2x2 is not finite: \(inf\+0j\)$"):
            exact_permanent_psd(np.diag([1e200, 1e200]))

    @pytest.mark.filterwarnings("error")
    def test_diagonal_spread_across_the_float_range(self):
        # per = 1e-2 is in range; unscaled, 1e300^2 overflowed and the value was refused as not finite
        assert exact_permanent_psd(np.diag([1e300, 1e300, 1e-301, 1e-301])) == pytest.approx(1e-2, rel=1e-15, abs=0)

    def test_wishart_with_a_spread_diagonal(self):
        # D H D with D = logspace(0, -3): Glynn's formula on the unscaled matrices was 2.0e-7 relative
        # off the matching sum of the bipartite hafnian haf([[0, H], [H^T, 0]]) = per(H)
        d = np.logspace(0, -3, 10)
        hs = np.array([d[:, None] * random_psd(10, 300 + seed) * d for seed in range(20)])
        zero = np.zeros_like(hs)
        expect = hafnian(np.block([[zero, hs], [hs.transpose(0, 2, 1), zero]])).real
        got = np.array([exact_permanent_psd(h) for h in hs])
        assert (np.abs(got - expect) <= 1e-13 * expect).all(), got / expect - 1

    @pytest.mark.filterwarnings("error")
    def test_hermitian_off_diagonal_above_its_diagonal(self):
        # not PSD: |h_01| = 1 > sqrt(h_00 h_11), so the diagonal scale takes h_01 to 6.7e299 and the
        # scaled permanent overflows (not finite: inf before); balanced, it is per = 1 + 1e-600
        assert exact_permanent_psd([[1e-300, 1], [1, 1e-300]]) == 1.0

    def test_zero_diagonal_entry_reads_0(self):
        # a zero h_ii of a PSD matrix zeroes its row, so its permanent is exactly 0
        assert exact_permanent_psd(np.diag([0.0, 2.0])) == 0.0

    @pytest.mark.parametrize(
        "value, error, message",
        [(1 + 1e-3j, NumericalIntegrityError, "imaginary residue"), (-1.0, ValidationError, "is negative")],
    )
    def test_residue_and_sign_checks(self, monkeypatch, value, error, message):
        # a Hermitian matrix's permanent is real, so a residue is a defect;
        # the sign is the input's, as only hermiticity is checked
        monkeypatch.setattr(psd_permanent, "principal_permanents", lambda h, modes: np.array([value], dtype=complex))
        with pytest.raises(error, match=message):
            exact_permanent_psd(np.eye(2))

    def test_imaginary_residue_exits_1_in_the_cli(self, monkeypatch, tmp_path, capsys):
        from gbsim.cli import main

        monkeypatch.setattr(psd_permanent, "principal_permanents", lambda h, modes: np.array([1 + 1e-3j]))
        (tmp_path / "h.txt").write_text("1 0\n0 1\n")
        assert main(["permanent-psd", "--matrix", str(tmp_path / "h.txt"), "--shots", "10", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "gbsim: error: permanent of PSD matrix has imaginary residue 1.000e-03\n"


def test_estimate_of_a_rank_two_permanent_past_the_crosscheck():
    # n = 20 is past the exact cross-check (n <= 12); per(V V^dag) is exact at rank 2
    rng = np.random.default_rng(20)
    v = (rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))) / math.sqrt(2)
    est = estimate_permanent(v @ v.conj().T, 100_000, 0)
    assert est.exact is None
    assert est.low_confidence or abs(est.estimate - permanent_low_rank(v)) <= 6 * est.stderr
