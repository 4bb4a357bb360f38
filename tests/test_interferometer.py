import math

import numpy as np
import pytest

from gbsim import (
    ValidationError,
    haar_random,
    tmsv_network,
    validate_unitary,
)
from gbsim.fock_oracle import _basis, _givens, _sector_unitaries


class TestValidate:
    def test_identity_accepted(self):
        net = validate_unitary(np.eye(4))
        assert net.unitarity_defect == 0.0
        assert net.m == 4

    def test_real_splitter_accepted(self):
        b = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        validate_unitary(b)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            validate_unitary(np.array([[1, 0], [1, 1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_rejected(self, bad):
        # a NaN defect compares False against the tolerance, so it needs its own check
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validate_unitary(u)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            validate_unitary(np.ones((2, 3)))

    def test_matrix_is_frozen(self):
        net = validate_unitary(np.eye(2))
        with pytest.raises(ValueError):
            net.u[0, 0] = 5.0


class TestHaarRandom:
    def test_single_mode_is_phase(self):
        net = haar_random(1, 3)
        assert abs(abs(net.u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = haar_random(5, 42)
        b = haar_random(5, 42)
        assert np.array_equal(a.u, b.u)

    def test_first_moment_matches_haar(self):
        # E |U_ij|^2 = 1/M for Haar; check the sample mean over 100 seeds
        vals = np.array([abs(haar_random(6, seed).u[0, 0]) ** 2 for seed in range(1, 101)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1 / 6) < 5 * se

    @pytest.mark.parametrize("seed", [True, np.True_, -1, 1.5, "1", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            haar_random(2, seed)

    @pytest.mark.parametrize(
        "seed, message",
        [(1.5, "seed must be an integer, got 1.5"), (-1, "seed must be a non-negative integer, got -1")],
    )
    def test_seed_messages(self, seed, message):
        with pytest.raises(ValidationError) as info:
            haar_random(2, seed)
        assert str(info.value) == message

    def test_zero_modes_rejected(self):
        with pytest.raises(ValidationError):
            haar_random(0, 1)

    @pytest.mark.parametrize("m", [2.5, "2", True, None])
    def test_non_integer_mode_count_rejected(self, m):
        with pytest.raises(ValidationError, match="mode count must be an integer"):
            haar_random(m, 1)

    def test_numpy_integers_run(self):
        assert np.array_equal(haar_random(np.int64(3), np.uint64(5)).u, haar_random(3, 5).u)


def sector_one(net):
    """The one-photon sector unitary, rows and columns in mode order."""
    order = np.argsort(_basis(1, net.m).argmax(axis=1))  # the row of the photon in each mode
    return list(_sector_unitaries(net, 1))[1][np.ix_(order, order)]


class TestDecompose:
    """The Givens sweep the Fock oracle composes its sector unitaries from."""

    def test_identity_is_pure_phases(self):
        layers, residue = _givens(np.eye(4))
        assert layers == []
        assert np.array_equal(residue, np.eye(4))  # phases of exactly 1

    def test_real_rotation_single_layer(self):
        th = 0.6
        u = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        layers, _ = _givens(u)
        assert len(layers) == 1
        _, _, theta, phi = layers[0]
        assert theta == pytest.approx(th, abs=1e-14)
        assert phi == pytest.approx(0.0, abs=1e-14)

    def test_haar_4_layer_count_and_recompose(self):
        net = haar_random(4, 77)
        assert len(_givens(net.u)[0]) <= 6
        assert np.abs(sector_one(net).T - net.u).max() <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_recompose_random(self, m):
        net = haar_random(m, 100 + m)
        assert np.abs(sector_one(net).T - net.u).max() <= 1e-10


def test_tmsv_network_shape():
    net = tmsv_network()
    assert net.m == 2
    # the product U^T U must be fully off-diagonal for pair creation
    uut = net.u.T @ net.u
    assert abs(uut[0, 0]) < 1e-14 and abs(uut[1, 1]) < 1e-14
    assert abs(abs(uut[0, 1]) - 1.0) < 1e-14
