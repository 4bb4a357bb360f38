import math

import numpy as np
import pytest

from gbsim import (
    ValidationError,
    build_qform,
    derive_q_params,
    enumerate_patterns,
    haar_random,
    prob_general,
    prob_squeezed,
    squeezed,
    squeezed_thermal,
    thermal,
    vacuum,
    validate_unitary,
)
from gbsim import qform
from gbsim.engines import applicable, probabilities
from gbsim.states import QFunctionParams


def random_orthogonal(m, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return validate_unitary(q * np.sign(np.diagonal(r)))


def test_all_vacuum_gives_trivial_form():
    net = haar_random(4, 3)
    qf = build_qform([vacuum()] * 4, net)
    assert qf.k == pytest.approx(1.0, abs=1e-14)
    assert np.abs(qf.c).max() < 1e-15
    assert np.abs(qf.d_tilde).max() < 1e-14


def test_equal_thermal_is_network_invariant():
    # no correlation is created: C = 0 and D-tilde stays diagonal
    v = 2.4
    mu = derive_q_params(thermal(v)).mu
    net = haar_random(5, 8)
    qf = build_qform([thermal(v)] * 5, net)
    assert np.abs(qf.c).max() < 1e-14
    assert np.abs(qf.d_tilde - (1 - mu) * np.eye(5)).max() < 1e-12


def test_equal_squeezed_through_orthogonal_network():
    # real orthogonal network on identical squeezed inputs: output = input
    r = 0.4
    lam = derive_q_params(squeezed(r)).lam
    net = random_orthogonal(4, 17)
    qf = build_qform([squeezed(r)] * 4, net)
    assert np.abs(qf.c - lam * np.eye(4)).max() < 1e-12
    assert np.abs(qf.d_tilde).max() < 1e-12


@pytest.mark.parametrize("r", [2.0, 8.0, 12.0, 15.0, 17.0])
def test_k_under_strong_squeezing(r):
    # K of one squeezed mode is sech r; sqrt(mu^2 - 4 lam^2) taken as written cancels
    # (mu -> 1, 2 lam -> 1) and was off by 1.4e-10 relative at r = 8 and 1.4e-2 at r = 17
    qf = build_qform([squeezed(r)], validate_unitary(np.eye(1)))
    assert qf.k == pytest.approx(1.0 / math.cosh(r), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("v", [1.35e154, 1e160, 1e300])
def test_k_beyond_float_range_raises(v):
    # (v + 1)^2 overflows, so K reads 0 and is refused; mu^2 - 4 lam^2 went subnormal
    # instead, and K came out 5.6e-6 relative off 2/(v + 1) at v = 1e160 with no error
    with pytest.raises(ValidationError, match="normalization K = 0.0 outside"):
        build_qform([thermal(v)], validate_unitary(np.eye(1)))


def test_subnormal_k_raises():
    # four thermal modes at v = 1e80 gave K = 1.6e-319, subnormal and silently accepted
    with pytest.raises(ValidationError, match=r"^normalization K = 1\.6\d*e-319 is below the smallest normal float"):
        build_qform([thermal(1e80)] * 4, validate_unitary(np.eye(4)))


@pytest.mark.parametrize("exponent", range(10, 80, 5))
def test_bright_thermal_vacuum_probability(exponent):
    # p(vacuum) = prod_s 2/(v_s + 1) at every engine while K stays normal (5e-301 at
    # the brightest inputs here); the floor refuses only subnormal K
    vs = [10.0**exponent * k for k in (1, 2, 3, 5)]
    expect = math.prod(2.0 / (v + 1.0) for v in vs)
    qf = build_qform([thermal(v) for v in vs], haar_random(4, exponent))
    for name in applicable(qf):
        assert probabilities(qf, name, [(0, 0, 0, 0)])[0] == pytest.approx(expect, rel=1e-14, abs=0.0), name


@pytest.mark.parametrize("kind", ["squeezed", "thermal"])
def test_d_tilde_at_the_psd_clamp(kind):
    # a vacuum mode gives D-tilde an exact 0 eigenvalue, which roundoff put below 0 in most of these
    # configs when D-tilde was formed as 1 - D; U^dag diag(1 - mu) U, with no clamp, is PSD up to the
    # eigensolver's own roundoff, m eps |D-tilde|
    fired = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        other = (lambda: squeezed(rng.uniform(0.1, 1.0))) if kind == "squeezed" else (lambda: thermal(rng.uniform(1.1, 4.0)))
        states = [vacuum(), *(other() if rng.random() < 0.5 else vacuum() for _ in range(m - 1))]
        net = haar_random(m, seed)
        mus = np.array([derive_q_params(s).mu for s in states])
        raw = np.eye(m) - net.u.conj().T @ (mus[:, None] * net.u)
        fired += np.linalg.eigvalsh((raw + raw.conj().T) * 0.5).min() < 0.0  # D-tilde formed as 1 - D
        qf = build_qform(states, net)
        w = np.linalg.eigvalsh(qf.d_tilde)
        assert w.min() >= -m * np.finfo(float).eps * np.abs(w).max(), seed
        if kind == "thermal":
            expect = math.prod(2.0 / (s.v_x + 1.0) for s in states)
            assert probabilities(qf, "thermal", [(0,) * m])[0] == pytest.approx(expect, rel=1e-15, abs=0.0), seed
    assert fired >= 50


def test_k_of_thermal_inputs_is_prod_mu():
    # lam = 0, so each mode's norm is its mu, and K is prod(mu) bit for bit
    rng = np.random.default_rng(11)
    for m in range(1, 9):
        states = [thermal(v) if v > 1.1 else vacuum() for v in 1.0 + 10.0 ** rng.uniform(-2, 4, m)]
        qf = build_qform(states, haar_random(m, m))
        assert qf.k == float(np.prod(qf.mus)), m


def test_trace_preserved_under_conjugation():
    states = [thermal(1.5), squeezed(0.3), squeezed_thermal(1.2, 0.2), vacuum()]
    mus = [derive_q_params(s).mu for s in states]
    qf = build_qform(states, haar_random(4, 5))
    assert np.trace(np.eye(4) - qf.d_tilde).real == pytest.approx(sum(mus), rel=1e-12)


def test_classical_inputs_give_d_spectrum_in_unit_interval():
    states = [thermal(1.8), thermal(3.5), squeezed_thermal(2.0, 0.2), vacuum()]
    # squeezed_thermal(2.0, 0.2) has v_p = 2 e^{-0.4} > 1: classical
    qf = build_qform(states, haar_random(4, 19))
    w = np.linalg.eigvalsh(np.eye(4) - qf.d_tilde)
    assert w.min() > 0.0
    assert w.max() <= 1.0 + 1e-12


def test_pure_inputs_have_vanishing_d_tilde():
    qf = build_qform([squeezed(0.5), squeezed(1.0), vacuum()], haar_random(3, 23))
    assert np.abs(qf.d_tilde).max() < 1e-14


def test_c_symmetric_and_d_tilde_hermitian():
    states = [squeezed_thermal(1.3, 0.4), thermal(2.0), squeezed(0.6)]
    qf = build_qform(states, haar_random(3, 29))
    assert np.abs(qf.c - qf.c.T).max() == 0.0
    assert np.abs(qf.d_tilde - qf.d_tilde.conj().T).max() == 0.0
    # PSD by construction; re-diagonalizing may still see eps-level noise
    assert np.linalg.eigvalsh(qf.d_tilde).min() >= -1e-12


def test_k_in_unit_interval():
    states = [thermal(4.0), squeezed(1.5), squeezed_thermal(3.0, 1.0)]
    qf = build_qform(states, haar_random(3, 31))
    assert 0.0 < qf.k <= 1.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        build_qform([vacuum()] * 3, haar_random(4, 1))


def test_builds_every_network_validate_unitary_accepts():
    # U^dag U = 1 + eps J (J all ones): entrywise defect eps, within the 1e-10 tolerance,
    # but D-tilde = 1 - U^dag U on pure inputs has eigenvalue -4 eps, below -1e-10
    eps = 0.99e-10
    root = np.eye(4) + math.expm1(0.5 * math.log1p(4 * eps)) / 4 * np.ones((4, 4))  # (1 + eps J)^(1/2)
    net = validate_unitary(haar_random(4, 3).u @ root)
    assert 0.98e-10 < net.unitarity_defect <= 1e-10
    for states in ([vacuum()] * 4, [squeezed(0.3), squeezed(0.2), squeezed(0.45), squeezed(0.1)]):
        qf = build_qform(states, net)
        for pat in enumerate_patterns(4, 4):
            assert abs(prob_general(qf, pat) - prob_squeezed(qf, pat)) <= 1e-15, pat


@pytest.mark.parametrize(
    "name, value, message",
    [("derive_q_params", lambda s: QFunctionParams(0.0, 2.0, 2.0, 0.0), "normalization K = 8.0 outside \\(0, 1\\]")],
    ids=["normalization"],
)
def test_integrity_checks_raise(monkeypatch, name, value, message):
    # checks no accepted input trips, each forced by a patched helper
    monkeypatch.setattr(qform, name, value)
    with pytest.raises(ValidationError, match=message) as exc:
        build_qform([thermal(1.5), squeezed(0.3), vacuum()], haar_random(3, 7))
    assert exc.type is ValidationError
