import math

import numpy as np
import pytest

from gbsim import (
    SampleReport,
    ValidationError,
    build_qform,
    estimate_pattern_probability,
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
from statutil import thermal_chi2_pvalue, total_photon_moments


class TestSamplePatterns:
    def test_all_vacuum(self):
        net = haar_random(3, 5)
        rep = sample_patterns([vacuum()] * 3, net, 5000, seed=0)
        assert rep.histogram == {(0, 0, 0): 5000}

    def test_single_mode_thermal_frequency(self):
        rep = sample_patterns([thermal(3.0)], validate_unitary(np.eye(1)), 200_000, seed=1)
        est = estimate_pattern_probability(rep, (1,))
        assert abs(est.estimate - 0.25) < 5 * est.stderr

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
            est = estimate_pattern_probability(rep, pat)
            assert abs(est.estimate - p) < 5 * max(est.stderr, 1e-6)

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


class TestEstimate:
    def _report(self, counts, shots):
        return SampleReport(shots=shots, seed=0, modes=2, histogram=counts)

    def test_unobserved_flag(self):
        rep = self._report({(0, 0): 100}, 100)
        est = estimate_pattern_probability(rep, (1, 1))
        assert est == (0.0, 0.0, False)

    def test_certain_pattern(self):
        rep = self._report({(0, 0): 100}, 100)
        est = estimate_pattern_probability(rep, (0, 0))
        assert est.estimate == 1.0
        assert est.stderr == 0.0
        assert est.observed

    def test_binomial_error(self):
        rep = self._report({(1, 0): 250, (0, 0): 999_750}, 1_000_000)
        est = estimate_pattern_probability(rep, (1, 0))
        assert est.estimate == pytest.approx(2.5e-4, abs=0)
        assert est.stderr == pytest.approx(math.sqrt(2.5e-4 * (1 - 2.5e-4) / 1e6), rel=1e-12)
