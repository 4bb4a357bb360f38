import math

import numpy as np
import pytest

from gbsim import (
    CutoffError,
    ValidationError,
    build_qform,
    enumerate_patterns,
    haar_random,
    prob_general,
    prob_squeezed,
    prob_thermal,
    squeezed,
    squeezed_thermal,
    thermal,
    tmsv_network,
    vacuum,
    validate_unitary,
)
from gbsim.fock_oracle import (
    FockState,
    apply_network,
    auto_cutoff,
    pattern_probability,
    photon_number_distribution,
    prepare_input,
)


class TestPrepareInput:
    def test_vacuum_single_entry(self):
        st = prepare_input([vacuum()], cutoff=4)
        assert st.rho[0, 0] == 1.0
        assert np.abs(st.rho).sum() == 1.0

    def test_thermal_geometric_law(self):
        st = prepare_input([thermal(3.0)])
        assert st.cutoff == 26
        for k, expect in enumerate([0.5, 0.25, 0.125]):
            assert pattern_probability(st, (k,)) == pytest.approx(expect, abs=1e-15)

    def test_squeezed_even_structure(self):
        r = 0.5
        st = prepare_input([squeezed(r)])
        assert pattern_probability(st, (0,)) == pytest.approx(1 / math.cosh(r), rel=1e-13)
        assert pattern_probability(st, (1,)) == 0.0
        assert pattern_probability(st, (3,)) == 0.0

    def test_density_is_physical(self):
        st = prepare_input([thermal(2.0), squeezed(0.3)], cutoff=16)
        assert np.abs(st.rho - st.rho.conj().T).max() < 1e-12
        assert 1.0 - st.trace() <= st.tail_bound + 1e-12
        assert np.linalg.eigvalsh(st.rho).min() > -1e-10

    def test_too_many_modes(self):
        with pytest.raises(ValidationError):
            prepare_input([vacuum()] * 4)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffError):
            prepare_input([thermal(3.0)], cutoff=5)

    def test_dimension_cap(self):
        with pytest.raises(CutoffError):
            prepare_input([vacuum()] * 3, cutoff=20)

    def test_squeezed_thermal_unsupported(self):
        with pytest.raises(ValidationError):
            prepare_input([squeezed_thermal(1.5, 0.3)])


class TestAutoCutoff:
    def test_single_mode_thermal(self):
        assert auto_cutoff([thermal(3.0)]) == 26

    def test_multimode_respects_cap(self):
        with pytest.raises(CutoffError):
            auto_cutoff([thermal(3.0), thermal(3.0)])

    def test_vacuum_minimal(self):
        assert auto_cutoff([vacuum()]) == 0


class TestApplyNetwork:
    def test_identity_network(self):
        st = prepare_input([thermal(2.0), squeezed(0.4)], cutoff=20)
        out = apply_network(st, validate_unitary(np.eye(2)))
        assert np.abs(out.rho - st.rho).max() < 1e-14

    def test_single_photon_on_splitter(self):
        # |1,0> through a 50:50 splitter: equal weight on (1,0) and (0,1)
        dim = 5
        rho = np.zeros((dim * dim, dim * dim), dtype=complex)
        idx = 1 * dim + 0
        rho[idx, idx] = 1.0
        st = FockState(cutoff=dim - 1, modes=2, rho=rho, tail_bound=0.0)
        bs = validate_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        out = apply_network(st, bs)
        assert pattern_probability(out, (1, 0)) == pytest.approx(0.5, abs=1e-13)
        assert pattern_probability(out, (0, 1)) == pytest.approx(0.5, abs=1e-13)

    def test_tmsv_joint_distribution(self):
        r = 0.5
        st = apply_network(prepare_input([squeezed(r)] * 2, cutoff=30), tmsv_network())
        joint = photon_number_distribution(st)
        for n in range(4):
            expect = math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
            assert joint[n, n] == pytest.approx(expect, abs=1e-12)
            if n > 0:
                assert abs(joint[n, n - 1]) < 1e-14

    def test_normalization(self):
        st = apply_network(prepare_input([squeezed(0.5)] * 2, cutoff=30), tmsv_network())
        assert photon_number_distribution(st).sum() == pytest.approx(1.0, abs=1e-6)

    def test_leak_detected(self):
        # deliberately starved cutoff: trace loss must raise
        st = prepare_input([thermal(3.0), thermal(3.0)], cutoff=8, tail_bound=1.0)
        with pytest.raises(CutoffError):
            apply_network(st, haar_random(2, 3))


class TestPatternProbability:
    @pytest.fixture(scope="class")
    def state(self):
        return apply_network(prepare_input([thermal(2.0), thermal(1.5)]), haar_random(2, 3))

    @pytest.mark.parametrize("pattern", [(1.9, 0), ("1", 0), (0.5, 1), (-1, 0), (1,), (1, 0, 0), (None, 0)])
    def test_rejects_malformed_pattern(self, state, pattern):
        # never truncated to another pattern
        with pytest.raises(ValidationError, match="pattern"):
            pattern_probability(state, pattern)

    def test_accepts_integer_values(self, state):
        expect = pattern_probability(state, (2, 1))
        for pattern in [(2.0, 1.0), (np.int64(2), True), np.array([2, 1])]:
            assert pattern_probability(state, pattern) == expect

    def test_rejects_counts_above_cutoff(self, state):
        with pytest.raises(ValidationError, match="truncated basis"):
            pattern_probability(state, (state.cutoff + 1, 0))


class TestEngineAgreement:
    def test_thermal_m2(self):
        states = [thermal(2.0), thermal(1.5)]
        net = haar_random(2, 9)
        st = apply_network(prepare_input(states), net)
        qf = build_qform(states, net)
        for pat in enumerate_patterns(2, 2):
            o = pattern_probability(st, pat)
            assert abs(prob_thermal(qf, pat) - o) < 1e-6
            assert abs(prob_general(qf, pat) - o) < 1e-6

    def test_squeezed_m2(self):
        states = [squeezed(0.35), squeezed(0.25)]
        net = haar_random(2, 10)
        st = apply_network(prepare_input(states, cutoff=24), net)
        qf = build_qform(states, net)
        for pat in enumerate_patterns(2, 2):
            o = pattern_probability(st, pat)
            assert abs(prob_squeezed(qf, pat) - o) < 1e-6
            assert abs(prob_general(qf, pat) - o) < 1e-6
