import itertools
import math
import time

import numpy as np
import pytest

import gbsim.sampler as sampler_module
from gbsim import (
    GaussianModeState,
    SampleReport,
    ValidationError,
    build_qform,
    embed,
    enumerate_patterns,
    estimate_permanent,
    estimate_probabilities,
    exact_permanent_psd,
    haar_random,
    is_classical,
    mean_photon_number,
    prob_thermal,
    sample_patterns,
    squeezed,
    squeezed_thermal,
    thermal,
    vacuum,
    validate_unitary,
)
from gbsim.engines import probabilities
from gbsim.fock_oracle import apply_network, pattern_probabilities, prepare_input
from statutil import (
    counter_histogram,
    fock_chi2_pvalue,
    geometric_chi2_pvalue,
    law_chi2_pvalue,
    output_mode_variances,
    photon_number_law,
    thermal_chi2_pvalue,
    total_photon_moments,
    weights_oracle,
)


def binomial_stderr(p: float, shots: int) -> float:
    return math.sqrt(p * (1.0 - p) / shots)


class TestSamplePatterns:
    def test_all_vacuum(self):
        net = haar_random(3, 5)
        rep = sample_patterns([vacuum()] * 3, net, 5000, seed=0)
        assert rep.histogram == {(0, 0, 0): 5000}

    def test_single_mode_thermal_frequency(self):
        rep = sample_patterns([thermal(3.0)], validate_unitary(np.eye(1)), 200_000, seed=1)
        assert abs(rep.frequency((1,)) - 0.25) < 5 * binomial_stderr(0.25, rep.shots)

    def test_deterministic_across_runs_and_workers(self):
        states = [thermal(2.0), thermal(3.0)]
        net = haar_random(2, 6)
        a = sample_patterns(states, net, 30_000, seed=9)
        b = sample_patterns(states, net, 30_000, seed=9)
        c = sample_patterns(states, net, 30_000, seed=9, workers=2)
        assert a.histogram == b.histogram == c.histogram

    def test_seed_changes_output(self):
        states = [thermal(2.0)]
        net = validate_unitary(np.eye(1))
        a = sample_patterns(states, net, 10_000, seed=1)
        b = sample_patterns(states, net, 10_000, seed=2)
        assert a.histogram != b.histogram

    def test_rejects_squeezed(self):
        with pytest.raises(ValidationError):
            sample_patterns([squeezed(0.3)], validate_unitary(np.eye(1)), 10, seed=0)

    def test_vacuum_draws_exactly_zero(self):
        # through the identity, a vacuum mode next to thermal ones never clicks
        states = [thermal(3.0), vacuum(), thermal(2.0), vacuum()]
        rep = sample_patterns(states, validate_unitary(np.eye(4)), 5000, seed=0)
        assert all(pat[1] == 0 and pat[3] == 0 for pat in rep.histogram)
        assert any(pat[0] == 1 for pat in rep.histogram)

    def test_squeezed_rejected_with_mode_index(self):
        with pytest.raises(ValidationError, match="mode 1"):
            sample_patterns([thermal(2.0), squeezed(0.5)], haar_random(2, 2), 10, seed=0)

    def test_classicality_decides_acceptance(self):
        candidates = [
            vacuum(), thermal(1.7), squeezed(0.2), squeezed(1.1),
            squeezed_thermal(1.1, 0.3), squeezed_thermal(4.0, 0.3),
            squeezed_thermal(2.0, 0.6),
        ]
        net = validate_unitary(np.eye(1))
        for s in candidates:
            if is_classical(s):
                sample_patterns([s], net, 10, seed=3)
            else:
                with pytest.raises(ValidationError):
                    sample_patterns([s], net, 10, seed=3)

    def test_thermal_mean_intensity(self):
        # through the identity, the mean count equals the P function's mean intensity (v - 1)/2
        v = 3.0
        rep = sample_patterns([thermal(v)], validate_unitary(np.eye(1)), 100_000, seed=1)
        mean, se = total_photon_moments(rep)
        assert abs(mean - (v - 1) / 2) < 5 * se

    def test_rejects_state_count_other_than_modes(self):
        with pytest.raises(ValidationError, match="3 states supplied for a 2-mode network"):
            sample_patterns([thermal(2.0)] * 3, haar_random(2, 1), 10, 0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValidationError):
            sample_patterns([vacuum()], validate_unitary(np.eye(1)), 0, seed=0)

    def test_histogram_total(self):
        states = [thermal(1.5), thermal(2.5)]
        rep = sample_patterns(states, haar_random(2, 7), 12_345, seed=3)
        assert sum(rep.histogram.values()) == 12_345

    def test_matches_thermal_engine(self):
        rng_v = (1.8, 2.6, 1.3)
        states = [thermal(v) for v in rng_v]
        net = haar_random(3, 8)
        qf = build_qform(states, net)
        rep = sample_patterns(states, net, 200_000, seed=4)
        for pat in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0)]:
            p = prob_thermal(qf, pat)
            assert abs(rep.frequency(pat) - p) < 5 * binomial_stderr(p, rep.shots)

    def test_energy_conservation(self):
        states = [thermal(2.0), thermal(3.0), vacuum()]
        net = haar_random(3, 9)
        rep = sample_patterns(states, net, 100_000, seed=5)
        mean, se = total_photon_moments(rep)
        expected = sum(mean_photon_number(s) for s in states)
        assert abs(mean - expected) < 5 * se

    def test_chi_squared_fit(self):
        states = [thermal(1.6), thermal(2.8)]
        net = haar_random(2, 10)
        qf = build_qform(states, net)
        rep = sample_patterns(states, net, 100_000, seed=6)
        assert thermal_chi2_pvalue(rep, qf) > 1e-3

    @pytest.mark.parametrize("vs", [(1.6, 2.8), (1.8, 2.6, 1.3)])
    def test_full_histogram_matches_fock_oracle(self, vs):
        # every pattern up to the cutoff, multi-photon ones included, is its
        # own bin, so a wrong bunching law fails here
        states = [thermal(v) for v in vs]
        net = haar_random(len(vs), 13)
        rep = sample_patterns(states, net, 100_000, seed=13)
        assert fock_chi2_pvalue(rep, states, net, cutoff=12) > 1e-3

    def test_bright_mode_follows_geometric_law(self):
        # through the identity a thermal mode's counts are geometric with mean (v - 1)/2
        v = 1001.0
        rep = sample_patterns([thermal(v)], validate_unitary(np.eye(1)), 20_000, seed=11)
        mean, se = total_photon_moments(rep)
        assert abs(mean - (v - 1) / 2) < 5 * se
        assert geometric_chi2_pvalue(rep, (v - 1) / 2) > 1e-3

    def test_bright_per_mode_means(self):
        # <n_k> = sum_j |U_jk|^2 nbar_j through any network, one bright input among dim ones
        states = [thermal(4001.0), thermal(2.0), vacuum()]
        net = haar_random(3, 12)
        shots = 20_000
        rep = sample_patterns(states, net, shots, seed=12)
        pats = np.array(list(rep.histogram), dtype=float)
        counts = np.array(list(rep.histogram.values()), dtype=float)[:, None]
        mean = (pats * counts).sum(axis=0) / shots
        se = np.sqrt(((pats - mean) ** 2 * counts).sum(axis=0) / shots / shots)
        nbar = np.array([mean_photon_number(s) for s in states])
        expected = (np.abs(np.asarray(net.u)) ** 2).T @ nbar
        assert np.all(np.abs(mean - expected) < 5 * se)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, "3", None, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample_patterns([thermal(2.0)], validate_unitary(np.eye(1)), 10, seed=seed)

    @pytest.mark.parametrize("workers", [0, -5, 1.5, "2", None, True])
    def test_rejects_bad_worker_count(self, workers):
        with pytest.raises(ValidationError, match="worker count"):
            sample_patterns([thermal(2.0)], haar_random(1, 1), 10, 1, workers=workers)

    def test_large_seeds_are_distinct(self):
        # every seed in [0, 2**64) keys its own streams: none wraps onto another
        states = [thermal(2.0)]
        net = validate_unitary(np.eye(1))
        seeds = [0, 2**63, 2**63 + 1, 2**64 - 1, np.uint64(2**64 - 2)]
        hists = [sample_patterns(states, net, 4096, seed=s).histogram for s in seeds]
        assert all(hists[i] != hists[j] for i in range(len(hists)) for j in range(i))

    def test_rejects_inputs_too_bright_for_counts(self):
        net = validate_unitary(np.eye(1))
        with pytest.raises(ValidationError, match="mean photon number"):
            sample_patterns([thermal(1e19)], net, 10, seed=0)
        rep = sample_patterns([thermal(2e15)], net, 10, seed=0)  # just below MAX_MEAN_PHOTONS
        assert sum(rep.histogram.values()) == 10

    def test_blocks_in_flight_bounded(self, monkeypatch):
        # while block 0 stalls, at most 4 * workers blocks are in flight, so
        # memory stays flat in the shot count
        started, started_during_stall = [], []
        inner = sampler_module._block_counts

        def stall_first(w, seed, block, nrows, scratch):
            started.append(block)
            if block == 0:
                time.sleep(0.3)
                started_during_stall.append(max(started))
            return inner(w, seed, block, nrows, scratch)

        monkeypatch.setattr(sampler_module, "_block_counts", stall_first)
        rep = sample_patterns([thermal(2.0)], validate_unitary(np.eye(1)), 100 * 4096, seed=0, workers=2)
        assert sum(rep.histogram.values()) == 100 * 4096
        assert started_during_stall[0] < 4 * 2


def classical_mixed_inputs(m: int) -> list:
    """M classical squeezed thermal modes (v_p = v e^-2r >= 1), so the output
    covariance depends on U's phases and not only on |U_jk|^2."""
    rng = np.random.default_rng(m)
    v = rng.uniform(1.5, 2.5, m)
    return [squeezed_thermal(vj, rj) for vj, rj in zip(v, rng.uniform(0.0, 0.5, m) * np.log(v))]


class TestDrawMatrix:
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_takes_normals_to_the_output_amplitudes(self, m):
        # [x, p] @ W = [Re beta, Im beta] with beta = (sx x + i sp p) @ U, on classical states with unequal sx and sp
        states, net = classical_mixed_inputs(m), haar_random(m, 90 + m)
        normals = np.random.default_rng(m).standard_normal((1000, 2 * m))
        sx = np.sqrt([(s.v_x - 1.0) / 4.0 for s in states])
        sp = np.sqrt([(s.v_p - 1.0) / 4.0 for s in states])
        beta = (normals[:, :m] * sx + 1j * normals[:, m:] * sp) @ net.u
        drawn = normals @ sampler_module._checked_draw(states, net)
        assert (np.abs(drawn[:, :m] + 1j * drawn[:, m:] - beta) <= 1e-14 * np.abs(beta).max(axis=1, keepdims=True)).all()

    def test_rows_are_the_widths_times_the_real_form(self):
        # row j is sqrt((v_x - 1) / 4) [Re U_j, Im U_j] and row m + j is sqrt((v_p - 1) / 4) [-Im U_j, Re U_j],
        # bit for bit; a v_p a roundoff below vacuum (still classical) has width 0
        states = [vacuum(), thermal(2.0), squeezed_thermal(3.0, 0.3), GaussianModeState(3.0, 1.0 - 1e-13), thermal(2001.0)]
        m, net = len(states), haar_random(len(states), 93)
        w, u = sampler_module._checked_draw(states, net), net.u
        for j, s in enumerate(states):
            sx, sp = (math.sqrt(max(v - 1.0, 0.0) / 4.0) for v in (s.v_x, s.v_p))
            assert np.array_equal(w[j], np.concatenate([sx * u[j].real, sx * u[j].imag]))
            assert np.array_equal(w[m + j], np.concatenate([sp * -u[j].imag, sp * u[j].real]))
        assert not w[m + 3].any() and not w[0].any() and not w[m].any()

    def test_thermal_excess_is_twice_nbar(self):
        # the PSD estimator passes 2 nbar for both quadratures: the rows are bit for bit those of width sqrt(nbar / 2)
        nbar = np.array([0.0, 5e-324, 1e-310, 1e-15, 1.0 / 3.0, 0.9 / 1.1, 9.0, 1e6, 2.0**54])
        u = haar_random(len(nbar), 94).u
        s = np.sqrt(nbar / 2.0)
        want = np.concatenate([s, s])[:, None] * np.block([[u.real, u.imag], [-u.imag, u.real]])
        assert np.array_equal(sampler_module._draw_matrix(2.0 * nbar, 2.0 * nbar, u), want)


class TestPhotonNumberLaw:
    """The sampler's counts against `photon_number_law`: the total count's law,
    which a passive network conserves, and each output mode's marginal, which
    has the same product form over that mode's two quadrature-covariance
    eigenvalues.  Each test's family of M + 1 chi-squared tests is held at
    level ALPHA: the total at ALPHA, each marginal at ALPHA / M (Bonferroni)."""

    ALPHA = 1e-3
    N_MAX = 150  # P(N > 150) < 1e-13 for these inputs at M = 64; the catch-all bin holds the rest

    def _pvalues(self, states, net, shots, seed):
        rep = sample_patterns(states, net, shots, seed=seed)
        counts = np.array(list(rep.histogram.values()))
        pats = np.array(list(rep.histogram), dtype=np.int32)
        total = np.bincount(pats.sum(axis=1), weights=counts)
        law = photon_number_law([v for s in states for v in (s.v_x, s.v_p)], self.N_MAX)
        p_total = law_chi2_pvalue(total, law, shots)
        p_modes = [
            law_chi2_pvalue(np.bincount(pats[:, k], weights=counts), photon_number_law(vs, self.N_MAX), shots)
            for k, vs in enumerate(output_mode_variances(states, net))
        ]
        return p_total, p_modes

    @pytest.mark.parametrize("m, shots", [(16, 2**17), (64, 2**16)])
    def test_total_and_marginals(self, m, shots):
        p_total, p_modes = self._pvalues(classical_mixed_inputs(m), haar_random(m, 70 + m), shots, seed=m)
        assert p_total > self.ALPHA
        assert min(p_modes) > self.ALPHA / m, f"smallest marginal p {min(p_modes):.2e}"

    def test_transposed_network_fails_the_marginals(self, monkeypatch):
        # the totals cannot tell U from U^T, but the marginals do
        inner = sampler_module._draw_matrix
        monkeypatch.setattr(sampler_module, "_draw_matrix", lambda sx, sp, u: inner(sx, sp, u.T))
        p_total, p_modes = self._pvalues(classical_mixed_inputs(16), haar_random(16, 86), 2**17, seed=16)
        assert p_total > self.ALPHA
        assert min(p_modes) < 1e-12

    def test_estimator_one_photon_sum(self):
        # the one-photon patterns' hits are disjoint, so their sum is Binomial(shots, P(N = 1))
        m, shots = 16, 2**17
        states, net = classical_mixed_inputs(m), haar_random(m, 86)
        p1 = photon_number_law([v for s in states for v in (s.v_x, s.v_p)], 1)[1]
        est = estimate_probabilities(states, net, np.eye(m, dtype=int), shots, seed=87)
        # the stderr of a sum is at most the sum of the stderrs
        assert abs(est.estimate.sum() - p1) < 5 * est.stderr.sum()
        assert abs(est.count.sum() - shots * p1) < 5 * math.sqrt(shots * p1 * (1 - p1))


# (states, network, shots): each exercises one part of the packed-key reduce
REDUCE_CASES = {
    # a v = 4001 mode at 10-bit fields: rows beyond a field take the exact path
    "bright-m6": ([thermal(4001.0)] + [thermal(v) for v in (1.3, 1.7, 2.1, 2.6, 3.2)], haar_random(6, 21), 20_000),
    # 3-bit fields: at v = 19 every row overflows, at v = 3 a few do
    "m16": ([thermal(19.0)] * 16, haar_random(16, 22), 8_000),
    "m16-dim": ([thermal(3.0)] * 16, haar_random(16, 25), 8_000),
    # 0-bit fields: only the all-zero row packs, every other row is exact
    "m64": ([thermal(1.05)] * 64, haar_random(64, 23), 600),
    # 63-bit field: counts near 1e15 still pack
    "m1-bright": ([thermal(2e15)], validate_unitary(np.eye(1)), 3_000),
    # not a multiple of the block size, and above FOLD_KEYS: several folds
    "folds-m6": ([thermal(v) for v in (1.3, 1.7, 2.1, 2.6, 3.2, 1.5)], haar_random(6, 24), 3 * 2**16 + 123),
}


class TestPackedReduce:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", list(REDUCE_CASES))
    def test_histogram_matches_counter_oracle(self, case, workers):
        states, net, shots = REDUCE_CASES[case]
        rep = sample_patterns(states, net, shots, seed=31, workers=workers)
        assert rep.histogram == counter_histogram(states, net, shots, 31)

    def test_several_folds_happen(self):
        assert REDUCE_CASES["folds-m6"][2] > 2 * sampler_module.FOLD_KEYS
        assert REDUCE_CASES["folds-m6"][2] % sampler_module.BLOCK_SHOTS


def random_psd(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    return g.conj().T @ g


class TestOnesWeights:
    # at n = 16 the all-ones pattern is far too rare to be hit: both counts are 0,
    # while the weights still estimate its probability
    @pytest.mark.parametrize("n, shots", [(4, 100_000), (16, 20_000)])
    def test_estimator_matches_row_oracle(self, n, shots):
        h = random_psd(n)
        emb = embed(h)
        states = [thermal(1.0 + 2.0 * nbar) for nbar in emb.eigenvalues / (emb.q - emb.eigenvalues)]
        net = validate_unitary(emb.u.conj().T)
        (hits,), (w_sum,), (w2_sum,) = weights_oracle(states, net, [(1,) * n], shots, 41)
        factor = emb.q**n / math.prod(emb.mus)
        mean = w_sum / shots
        estimate = factor * mean
        stderr = factor * math.sqrt(max(w2_sum / shots - mean * mean, 0.0) / shots)
        for workers in (1, 2, 4):
            res = estimate_permanent(h, shots, 41, workers=workers)
            assert res.count == hits
            assert res.estimate == pytest.approx(estimate, rel=1e-12, abs=0)
            assert res.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
        # the Poisson draw's all-ones count and the Bernoulli count share one law
        p_ones = math.prod(emb.mus) * exact_permanent_psd(h) / emb.q**n
        sigma = math.sqrt(shots * p_ones * (1.0 - p_ones))
        poisson = counter_histogram(states, net, shots, 41)[(1,) * n]
        for count in (poisson, hits):
            assert abs(count - shots * p_ones) <= 5 * sigma


def assert_same(a, b) -> None:
    assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def assert_within_5_sigma(est, exact) -> None:
    z = np.abs(est.estimate - np.asarray(exact)) / est.stderr
    assert z.max() < 5, f"worst {z.max():.2f} error bars"


class TestEstimateProbabilities:
    def test_mixed_patterns_match_row_oracle(self):
        # 0/1 and multi-photon patterns in one list; the hits follow the running sum of w over it
        states = [thermal(2.5), squeezed_thermal(2.0, 0.2), thermal(1.6)]
        net = haar_random(3, 40)
        patterns = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1), (1, 1, 1), (0, 3, 0), (4, 1, 2)]
        shots = 3 * 4096 + 77
        hits, w_sum, w2_sum = weights_oracle(states, net, patterns, shots, 43)
        mean = np.array(w_sum) / shots
        for workers in (1, 2, 4):
            est = estimate_probabilities(states, net, patterns, shots, 43, workers=workers)
            assert est.count.tolist() == hits
            assert est.estimate == pytest.approx(mean, rel=1e-12, abs=0)
            assert est.stderr == pytest.approx(np.sqrt((np.array(w2_sum) / shots - mean**2) / shots), rel=1e-9, abs=0)
            assert est.ess == pytest.approx(np.square(w_sum) / np.array(w2_sum), rel=1e-12, abs=0)
        assert min(hits) > 0

    @pytest.mark.parametrize("m, n_max, shots", [(6, 6, 2**17), (10, 4, 2**16)])
    def test_general_engine_on_squeezed_thermal_inputs(self, m, n_max, shots):
        # mixed inputs (lam != 0, mu != 1): only the general engine applies, and
        # nothing else gives an independent value
        rng = np.random.default_rng(m)
        states = [squeezed_thermal(v, r) for v, r in zip(rng.uniform(2.0, 3.0, m), rng.uniform(0.1, 0.3, m))]
        net = haar_random(m, 50 + m)
        patterns = list(enumerate_patterns(m, n_max))
        est = estimate_probabilities(states, net, patterns, shots, seed=m)
        assert_within_5_sigma(est, probabilities(build_qform(states, net), "general", patterns))

    def test_thermal_engine(self):
        states = [thermal(v) for v in (1.8, 2.6, 1.3, 3.1)]
        net = haar_random(4, 61)
        patterns = list(enumerate_patterns(4, 4))
        est = estimate_probabilities(states, net, patterns, 2**16, seed=61)
        assert_within_5_sigma(est, probabilities(build_qform(states, net), "thermal", patterns))

    def test_fock_oracle_on_multi_photon_patterns(self):
        states = [thermal(2.2), thermal(1.5), vacuum()]
        net = haar_random(3, 62)
        patterns = [p for p in itertools.product(range(5), repeat=3) if sum(p) <= 4]
        oracle = apply_network(prepare_input(states, 4), net)
        est = estimate_probabilities(states, net, patterns, 2**16, seed=62)
        assert_within_5_sigma(est, pattern_probabilities(oracle, patterns))

    @pytest.mark.parametrize("v, counts", [(3.0, range(11)), (2001.0, [0, 1, 10, 1000, 3000])])
    def test_one_mode_geometric_law(self, v, counts):
        # p(n) = nbar^n / (nbar + 1)^(n + 1); at nbar = 1000 most shots have
        # e^-lam below the smallest double, while the pmf near the mean does not
        nbar = (v - 1.0) / 2.0
        est = estimate_probabilities([thermal(v)], validate_unitary(np.eye(1)), [(n,) for n in counts], 2**16, seed=63)
        assert_within_5_sigma(est, [math.exp(n * math.log(nbar) - (n + 1) * math.log1p(nbar)) for n in counts])

    def test_classical_boundary(self):
        # v_p = 1 exactly: the P function has zero width along p, so the
        # sampler's draw degenerates to one quadrature per mode
        states = [squeezed_thermal(math.exp(2 * r), r) for r in (0.2, 0.4, 0.6)]
        assert [s.v_p for s in states] == [1.0] * 3 and all(map(is_classical, states))
        net = haar_random(3, 90)
        patterns = list(enumerate_patterns(3, 3))
        est = estimate_probabilities(states, net, patterns, 2**17, seed=90)
        assert not est.low_confidence.any()
        assert_within_5_sigma(est, probabilities(build_qform(states, net), "general", patterns))

    def test_equal_for_every_worker_count(self):
        states = [thermal(2.0), squeezed_thermal(2.5, 0.3)]
        net = haar_random(2, 64)
        patterns = [(0, 0), (1, 0), (2, 3), (0, 1)]
        runs = [estimate_probabilities(states, net, patterns, 30_000, seed=64, workers=w) for w in (1, 2, 4)]
        assert_same(runs[0], runs[1])
        assert_same(runs[0], runs[2])

    def test_vacuum_modes_and_empty_list(self):
        # through the identity a vacuum mode has lam = 0 exactly: its weights are 1 at count 0, else 0
        net = validate_unitary(np.eye(2))
        est = estimate_probabilities([thermal(3.0), vacuum()], net, [(1, 0), (0, 1), (3, 2)], 5000, seed=0)
        assert est.estimate[0] > 0 and est.estimate[1:].tolist() == [0.0, 0.0]
        assert est.ess[1:].tolist() == [0.0, 0.0] and est.count[1:].tolist() == [0, 0]
        empty = estimate_probabilities([thermal(3.0), vacuum()], net, [], 10, seed=0)
        assert all(len(a) == 0 for a in empty)

    def test_flags_a_mean_few_shots_carry(self):
        # no shot of 8192 comes near 400 photons, so that mean reads 0 +- 0 where
        # the exact value is 2^-401 = 1.9e-121; only the flag tells the two apart
        est = estimate_probabilities([thermal(3.0)], validate_unitary(np.eye(1)), [(400,), (1,)], 8192, seed=0)
        assert est.estimate[0] == est.stderr[0] == 0.0
        assert est.low_confidence.tolist() == [True, False]
        assert est.low_confidence.tolist() == (est.ess < sampler_module.LOW_CONFIDENCE_COUNT).tolist()

    @pytest.mark.parametrize("patterns", [[(1, 0), (1, 0)], [(1, 0), (1.0, 0)], [(2, 1), np.array([2, 1])]])
    def test_rejects_repeated_patterns(self, patterns):
        with pytest.raises(ValidationError, match="distinct"):
            estimate_probabilities([thermal(2.0)] * 2, haar_random(2, 65), patterns, 10, seed=0)

    def test_rejects_non_classical_inputs(self):
        with pytest.raises(ValidationError, match="mode 0"):
            estimate_probabilities([squeezed(0.3)], validate_unitary(np.eye(1)), [(1,)], 10, seed=0)


class TestShotCount:
    # (entry point, a valid call) for each public function that takes a shot count
    CALLS = {
        "sample_patterns": lambda shots: sample_patterns([thermal(2.0)], validate_unitary(np.eye(1)), shots, 0),
        "estimate_probabilities": lambda shots: estimate_probabilities(
            [thermal(2.0)], validate_unitary(np.eye(1)), [(1,)], shots, 0
        ),
        "estimate_permanent": lambda shots: estimate_permanent(random_psd(3), shots, 0),
        "estimate_permanent-zero": lambda shots: estimate_permanent(np.zeros((3, 3)), shots, 0),
    }

    # True is refused although operator.index(True) == 1
    @pytest.mark.parametrize("shots", [10.0, 10.5, "10", None, 0, -3, True])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_rejects_bad_shot_count(self, call, shots):
        with pytest.raises(ValidationError, match="shot count"):
            self.CALLS[call](shots)

    @pytest.mark.parametrize("shots", [np.int64(10)])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_accepts_integer_shot_count(self, call, shots):
        self.CALLS[call](shots)

    class FirstWindowDrawn(Exception):
        pass

    @pytest.mark.parametrize("shots", [2**63 - 1, np.uint64(2**63 - 1), np.uint64(2**64 - 1)], ids=["2^63-1", "uint64-2^63-1", "uint64-2^64-1"])
    @pytest.mark.parametrize("call, draw", [("sample_patterns", "_block_counts"), ("estimate_probabilities", "_block_weights")])
    def test_huge_shot_count_hands_out_full_blocks(self, monkeypatch, call, draw, shots):
        # checked without running them: the stand-in records each block it is handed and stops
        # after the first window of 4 blocks (one worker); (2^64 - 1) + 4095 wraps in uint64 arithmetic
        handed = []

        def stand_in(w, seed, block, nrows, scratch, **patterns):
            if len(handed) == 4:
                raise self.FirstWindowDrawn
            handed.append((block, nrows))
            return np.zeros((nrows, 1), dtype=np.int64) if draw == "_block_counts" else np.zeros((3, 1))

        monkeypatch.setattr(sampler_module, draw, stand_in)
        with pytest.raises(self.FirstWindowDrawn):
            self.CALLS[call](shots)
        assert handed == [(b, sampler_module.BLOCK_SHOTS) for b in range(4)]


class TestEstimate:
    def _report(self, counts, shots):
        return SampleReport(shots=shots, seed=0, modes=2, histogram=counts)

    @pytest.mark.parametrize("pattern", [(1.9, 0), (0.5, 1), (1,), (1, 0, 0), ("1", 0), (-1, 0), (float("nan"), 0)])
    def test_lookup_rejects_malformed_pattern(self, pattern):
        # never truncated to another pattern, never silently read as 0
        rep = self._report({(1, 0): 3, (0, 1): 2, (0, 0): 5}, 10)
        with pytest.raises(ValidationError, match="pattern"):
            rep.frequency(pattern)
        with pytest.raises(ValidationError, match="pattern"):
            estimate_probabilities([thermal(2.0)] * 2, haar_random(2, 66), [pattern], 10, seed=0)

    def test_lookup_accepts_integer_values(self):
        rep = self._report({(2, 0): 4, (0, 0): 6}, 10)
        net = haar_random(2, 66)
        reference = estimate_probabilities([thermal(2.0)] * 2, net, [(2, 0)], 1000, seed=0)
        for pattern in [(2, 0), (2.0, 0), np.array([2, 0]), (np.int64(2), False)]:
            assert rep.frequency(pattern) == 0.4
            assert_same(estimate_probabilities([thermal(2.0)] * 2, net, [pattern], 1000, seed=0), reference)
