import math
from itertools import islice

import numpy as np
import pytest

from gbsim import (
    ContractError,
    ValidationError,
    build_qform,
    enumerate_patterns,
    haar_random,
    pairing_matrix,
    prob_coherent,
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
from gbsim.engines import ENGINES, applicable


def rel_close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def test_general_equals_squeezed_at_eight_detections():
    # a 16x16 pairing hafnian against an 8x8 one; an inclusion-exclusion
    # (power-trace) hafnian misses this by about 6e-11
    rng = np.random.default_rng(810)
    qf = build_qform([squeezed(r) for r in rng.uniform(0.3, 0.9, 10)], haar_random(10, 810))
    pattern = (1,) * 8 + (0, 0)
    assert rel_close(prob_general(qf, pattern), prob_squeezed(qf, pattern), tol=1e-12)


class TestCoherent:
    def test_vacuum_stays_vacuum(self):
        net = haar_random(3, 1)
        assert prob_coherent(net, np.zeros(3), (0, 0, 0)) == 1.0

    def test_single_mode_unit_intensity(self):
        net = validate_unitary(np.eye(1))
        assert prob_coherent(net, [1.0], (1,)) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_two_mode_splitter(self):
        # |gamma|^2 = 2 split 50:50: each output has unit intensity
        net = validate_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        gamma = math.sqrt(2)
        p = prob_coherent(net, [gamma, 0.0], (1, 1))
        assert p == pytest.approx(math.exp(-2), rel=1e-14)


class TestGeneral:
    def test_all_vacuum_zero_pattern(self):
        qf = build_qform([vacuum()] * 3, haar_random(3, 2))
        assert prob_general(qf, (0, 0, 0)) == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_thermal_engine(self):
        rng = np.random.default_rng(10)
        states = [thermal(v) for v in rng.uniform(1.0, 4.0, size=6)]
        net = haar_random(6, 33)
        qf = build_qform(states, net)
        for pat in enumerate_patterns(6, 4):
            assert rel_close(prob_general(qf, pat), prob_thermal(qf, pat))

    def test_agrees_with_squeezed_engine(self):
        rng = np.random.default_rng(11)
        states = [squeezed(r) for r in rng.uniform(0.0, 1.0, size=6)]
        net = haar_random(6, 34)
        qf = build_qform(states, net)
        for pat in enumerate_patterns(6, 4):
            if sum(pat) % 2 == 0:
                assert rel_close(prob_general(qf, pat), prob_squeezed(qf, pat))

    def test_odd_patterns_vanish_for_squeezed_inputs(self):
        states = [squeezed(r) for r in (0.3, 0.7, 0.5, 0.9)]
        qf = build_qform(states, haar_random(4, 35))
        for pat in enumerate_patterns(4, 3):
            if sum(pat) % 2 == 1:
                assert prob_general(qf, pat) <= 1e-12

    def test_cost_limit_on_large_patterns(self):
        from gbsim import CostLimitError

        qf = build_qform([vacuum()] * 22, validate_unitary(np.eye(22)))
        with pytest.raises(CostLimitError):
            prob_general(qf, (1,) * 11 + (0,) * 11)


class TestThermal:
    def test_geometric_fixture(self):
        qf = build_qform([thermal(3.0)], validate_unitary(np.eye(1)))
        # nbar = 1: p(1) = nbar/(nbar+1)^2 = 1/4
        assert abs(prob_thermal(qf, (1,)) - 0.25) < 1e-16

    def test_equal_temperatures_network_invariant(self):
        states = [thermal(2.2)] * 4
        q_id = build_qform(states, validate_unitary(np.eye(4)))
        q_haar = build_qform(states, haar_random(4, 40))
        for pat in enumerate_patterns(4, 3):
            assert prob_thermal(q_haar, pat) == pytest.approx(prob_thermal(q_id, pat), rel=1e-12)

    def test_zero_pattern_gives_product_of_mu(self):
        states = [thermal(3.0), thermal(2.0)]
        qf = build_qform(states, haar_random(2, 41))
        assert prob_thermal(qf, (0, 0)) == pytest.approx(0.5 * (2 / 3), rel=1e-14)

    def test_rejects_squeezed_input(self):
        qf = build_qform([squeezed(0.5), thermal(2.0)], haar_random(2, 42))
        with pytest.raises(ContractError):
            prob_thermal(qf, (1, 0))


class TestSqueezed:
    def test_odd_is_exactly_zero(self):
        qf = build_qform([squeezed(0.8)] * 3, haar_random(3, 50))
        assert prob_squeezed(qf, (1, 0, 0)) == 0.0
        assert prob_squeezed(qf, (1, 1, 1)) == 0.0

    def test_single_mode_vacuum_probability(self):
        r = 0.9
        qf = build_qform([squeezed(r)], validate_unitary(np.eye(1)))
        assert prob_squeezed(qf, (0,)) == pytest.approx(1 / math.cosh(r), rel=1e-14)

    @pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
    def test_tmsv_pair_probability(self, r):
        qf = build_qform([squeezed(r)] * 2, tmsv_network())
        expect = math.tanh(r) ** 2 / math.cosh(r) ** 2
        assert abs(prob_squeezed(qf, (1, 1)) - expect) < 1e-14

    def test_rejects_thermal_input(self):
        qf = build_qform([thermal(2.0)] * 2, haar_random(2, 51))
        with pytest.raises(ContractError):
            prob_squeezed(qf, (1, 1))


class TestEnumeratePatterns:
    def test_small_enumeration_order(self):
        assert list(enumerate_patterns(3, 1)) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_full_enumeration_count(self):
        assert len(list(enumerate_patterns(4, 4))) == 16

    def test_streaming_large_mode_count(self):
        gen = enumerate_patterns(30, 2)
        first = list(islice(gen, 3))
        assert first[0] == (0,) * 30
        assert sum(first[1]) == 1
        # 1 + 30 + C(30,2) patterns in total; count without materializing
        assert 3 + sum(1 for _ in gen) == 1 + 30 + 435


class TestStructure:
    def test_pairing_matrix_blocks(self):
        states = [squeezed_thermal(1.4, 0.3), thermal(2.0), squeezed(0.5)]
        qf = build_qform(states, haar_random(3, 60))
        pat = (1, 0, 1)
        b = pairing_matrix(qf, pat)
        assert b.shape == (4, 4)
        assert np.abs(b - b.T).max() < 1e-12
        # alpha-conj(alpha) block is the Hermitian D-tilde restriction
        dt = b[:2, 2:]
        assert np.abs(dt - dt.conj().T).max() < 1e-12

    def test_normalization_sub_distribution(self):
        states = [squeezed_thermal(1.2, 0.4), thermal(1.6), squeezed(0.3), vacuum()]
        qf = build_qform(states, haar_random(4, 61))
        total = sum(prob_general(qf, p) for p in enumerate_patterns(4, 4))
        assert total <= 1.0 + 1e-9

    def test_permutation_covariance(self):
        states = [thermal(1.5), thermal(2.5), thermal(3.5)]
        net = haar_random(3, 62)
        qf = build_qform(states, net)
        perm = [2, 0, 1]
        net_p = validate_unitary(net.u[:, perm])
        qf_p = build_qform(states, net_p)
        for pat in enumerate_patterns(3, 3):
            # output k of the permuted network is output perm[k] of the original
            pat_p = tuple(pat[j] for j in perm)
            assert prob_general(qf_p, pat_p) == pytest.approx(prob_general(qf, pat), rel=1e-12)


def _every_engine_on_two_vacuum_modes():
    # all-vacuum inputs satisfy every engine's precondition
    net = validate_unitary(np.eye(2))
    qf = build_qform([vacuum()] * 2, net)
    return [lambda pat, fn=fn: fn(qf, pat) for fn in ENGINES.values()] + [
        lambda pat: prob_coherent(net, [0.0, 0.0], pat)
    ]


class TestPatternRule:
    @pytest.mark.parametrize("pat", [(1.9, 0), (0.5, 1), (2, 0), ("1", 0), (None, 0), (1, 0, 0), (1,)])
    def test_rejects_entries_other_than_0_or_1(self, pat):
        for prob in _every_engine_on_two_vacuum_modes():
            with pytest.raises(ValidationError):
                prob(pat)

    @pytest.mark.parametrize("pat", [(1, 0), (1.0, 0.0), (True, False), (np.int64(1), np.int64(0)), np.array([1, 0])])
    def test_accepts_entries_equal_to_0_or_1(self, pat):
        for prob in _every_engine_on_two_vacuum_modes():
            assert prob(pat) == prob((1, 0))


APPLICABILITY = [
    ([thermal(2.0), thermal(1.4)], ["general", "thermal"]),
    ([vacuum(), thermal(1.4)], ["general", "thermal"]),
    ([squeezed(0.4), squeezed(0.9)], ["general", "squeezed"]),
    ([vacuum(), squeezed(0.9)], ["general", "squeezed"]),
    ([thermal(2.0), squeezed(0.4)], ["general"]),
    ([squeezed_thermal(1.5, 0.3), vacuum()], ["general"]),
    ([vacuum(), vacuum()], ["general", "thermal", "squeezed"]),
]


class TestApplicable:
    @pytest.mark.parametrize("states, expected", APPLICABILITY)
    def test_names_in_order(self, states, expected):
        assert applicable(build_qform(states, haar_random(2, 70))) == expected

    @pytest.mark.parametrize("states, expected", APPLICABILITY)
    def test_guards_agree_with_applicable(self, states, expected):
        qf = build_qform(states, haar_random(2, 70))
        for name in ("thermal", "squeezed"):
            if name in expected:
                ENGINES[name](qf, (1, 1))
            else:
                with pytest.raises(ContractError):
                    ENGINES[name](qf, (1, 1))
