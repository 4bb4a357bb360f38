"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

import gbsim
from gbsim import (
    build_qform,
    enumerate_patterns,
    estimate_permanent,
    exact_permanent_psd,
    hafnian,
    haar_random,
    permanent,
    prob_general,
    prob_squeezed,
    prob_thermal,
    sample_patterns,
    squeezed,
    thermal,
    validate_unitary,
)
from gbsim.cli import main as cli_main
from gbsim.fock_oracle import apply_network, pattern_probabilities, prepare_input
from netutil import tmsv_network
from statutil import photon_number_distribution, thermal_chi2_pvalue


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_thermal_engine_agreement():
    """Pairing-sum route vs permanent route on 50 random networks, M = 6, thermal inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202601)
    worst = 0.0
    for trial in range(50):
        states = [thermal(v) for v in rng.uniform(1.0, 4.0, size=6)]
        qf = build_qform(states, haar_random(6, 1000 + trial))
        for pat in enumerate_patterns(6, 4):
            a = prob_general(qf, pat)
            b = prob_thermal(qf, pat)
            worst = max(worst, abs(a - b) / max(a, b, 1e-30))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-10 and elapsed <= 60.0,
        f"50 networks, worst relative disagreement {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_squeezed_engine_agreement():
    """Pairing-sum route vs |O_N|^2 route on 50 random networks, M = 6, squeezed inputs."""
    rng = np.random.default_rng(202602)
    worst_even = 0.0
    worst_odd = 0.0
    for trial in range(50):
        states = [squeezed(r) for r in rng.uniform(0.0, 1.0, size=6)]
        qf = build_qform(states, haar_random(6, 2000 + trial))
        for pat in enumerate_patterns(6, 4):
            a = prob_general(qf, pat)
            if sum(pat) % 2 == 0:
                b = prob_squeezed(qf, pat)
                worst_even = max(worst_even, abs(a - b) / max(a, b, 1e-30))
            else:
                worst_odd = max(worst_odd, a)
    _report(
        2,
        worst_even <= 1e-10 and worst_odd <= 1e-12,
        f"even-N rel {worst_even:.2e} (tol 1e-10), odd-N abs {worst_odd:.2e} (tol 1e-12)",
    )


def test_criterion_3_tmsv_analytic_fixture():
    """pi/2 phase + 50:50 splitter on equal squeezed inputs = TMSV pair."""
    net = tmsv_network()
    worst = 0.0
    for r in (0.2, 0.5, 1.0):
        qf = build_qform([squeezed(r)] * 2, net)
        expect_11 = math.tanh(r) ** 2 / math.cosh(r) ** 2
        expect_00 = 1.0 / math.cosh(r) ** 2
        for engine in (prob_squeezed, prob_general):
            worst = max(worst, abs(engine(qf, (1, 1)) - expect_11))
            worst = max(worst, abs(engine(qf, (1, 0))))
            worst = max(worst, abs(engine(qf, (0, 1))))
            worst = max(worst, abs(engine(qf, (0, 0)) - expect_00))
    _report(3, worst <= 1e-12, f"worst absolute deviation {worst:.2e} (tol 1e-12) over r in {{0.2, 0.5, 1.0}}")


def test_criterion_4_thermal_geometric_fixture():
    """M = 1, V = 3, identity network: p(0) = 1/2 and p(1) = 1/4 exactly."""
    qf = build_qform([thermal(3.0)], validate_unitary(np.eye(1)))
    worst = 0.0
    for engine in (prob_thermal, prob_general):
        worst = max(worst, abs(engine(qf, (0,)) - 0.5))
        worst = max(worst, abs(engine(qf, (1,)) - 0.25))
    _report(4, worst <= 1e-14, f"worst deviation {worst:.2e} (tol 1e-14) via both engine paths")


def test_criterion_5_sampler_statistics():
    """10^6-shot sampling at M = 4 against the thermal engine."""
    t0 = time.perf_counter()
    states = [thermal(v) for v in (1.8, 2.5, 3.2, 1.3)]
    net = haar_random(4, 505)
    qf = build_qform(states, net)

    rep = sample_patterns(states, net, 1_000_000, seed=12345, workers=2)
    worst_sigma = 0.0
    checked = 0
    for pat in enumerate_patterns(4, 4):
        p = prob_thermal(qf, pat)
        if p >= 1e-3:
            checked += 1
            se = math.sqrt(p * (1 - p) / rep.shots)
            worst_sigma = max(worst_sigma, abs(rep.frequency(pat) - p) / se)
    five_sigma_ok = worst_sigma <= 5.0

    passes = 0
    for seed in range(20):
        r = sample_patterns(states, net, 1_000_000, seed=seed, workers=2)
        if thermal_chi2_pvalue(r, qf) >= 1e-3:
            passes += 1
    elapsed = time.perf_counter() - t0
    _report(
        5,
        five_sigma_ok and passes >= 18 and elapsed <= 120.0,
        f"{checked} patterns with p >= 1e-3, worst {worst_sigma:.2f} sigma (tol 5); "
        f"chi-squared passes {passes}/20 (need 18); {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_psd_permanent_estimator():
    """Sampling estimates of 10 random 4x4 PSD permanents vs the Glynn permanent."""
    rng = np.random.default_rng(2026)
    worst_sigma = 0.0
    ratio_checked = 0
    ratio_ok = True
    for i in range(10):
        g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2)
        h = g.conj().T @ g
        shots = 4_000_000 if i == 1 else 400_000
        res = estimate_permanent(h, shots, seed=600 + i, workers=2)
        assert res.count > 0, "pattern never observed; cannot form the estimate"
        worst_sigma = max(worst_sigma, abs(res.estimate - res.exact) / res.stderr)
        if res.count >= 10_000:
            ratio_checked += 1
            ratio_ok &= 1 / 1.2 <= res.estimate / res.exact <= 1.2
    scaling_ok = True
    h = (lambda g: g.conj().T @ g)((rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))))
    base = exact_permanent_psd(h)
    for q in (2.0, 10.0):
        scaling_ok &= abs(exact_permanent_psd(q * h) - q**4 * base) <= 1e-10 * q**4 * base
    _report(
        6,
        worst_sigma <= 5.0 and ratio_ok and scaling_ok,
        f"worst {worst_sigma:.2f} sigma (tol 5); multiplicative 1.2 checked on {ratio_checked} "
        f"high-count runs: {'ok' if ratio_ok else 'violated'}; q^N scaling {'ok' if scaling_ok else 'violated'}",
    )


def test_criterion_7_fock_oracle_agreement():
    """Engines vs brute-force Fock densities at M = 2 and M = 3."""
    # each cutoff drops less than 1e-10 of its input, so the normalization gate holds
    cases = [
        ("thermal M=2", [thermal(2.0), thermal(1.5)], haar_random(2, 9), 21, (prob_thermal, prob_general)),
        ("squeezed M=2", [squeezed(0.35), squeezed(0.25)], haar_random(2, 10), 24, (prob_squeezed, prob_general)),
        ("thermal M=3", [thermal(1.3), thermal(1.2), thermal(1.4)], haar_random(3, 21), 13, (prob_thermal, prob_general)),
        ("squeezed M=3", [squeezed(0.15), squeezed(0.1), squeezed(0.2)], haar_random(3, 22), 12, (prob_squeezed, prob_general)),
    ]
    worst = 0.0
    worst_norm = 0.0
    for name, states, net, cutoff, engines in cases:
        st = apply_network(prepare_input(states, cutoff=cutoff), net)
        qf = build_qform(states, net)
        patterns = list(enumerate_patterns(net.m, net.m))
        for pat, oracle in zip(patterns, pattern_probabilities(st, patterns)):
            for engine in engines:
                worst = max(worst, abs(engine(qf, pat) - oracle))
        worst_norm = max(worst_norm, abs(photon_number_distribution(st).sum() - 1.0))
    _report(
        7,
        worst <= 1e-6 and worst_norm <= 1e-6,
        f"worst engine-oracle delta {worst:.2e} (tol 1e-6); worst normalization defect {worst_norm:.2e}",
    )


def test_criterion_8_performance_floor():
    """Single-threaded kernel timings at the stated sizes."""
    rng = np.random.default_rng(8)
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = b + b.T
    t0 = time.perf_counter()
    hafnian(b)
    t_haf = time.perf_counter() - t0

    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    t0 = time.perf_counter()
    permanent(a)
    t_per = time.perf_counter() - t0
    _report(
        8,
        t_haf <= 5.0 and t_per <= 2.0,
        f"hafnian 16x16 in {t_haf:.2f}s (budget 5s); Glynn permanent 20x20 in {t_per:.2f}s (budget 2s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical sample and haar outputs across runs and worker counts."""
    net = haar_random(3, 77)
    cfg = {
        "schema": 1,
        "modes": 3,
        "states": [{"type": "thermal", "v": v} for v in (1.5, 2.0, 2.5)],
        "unitary": [[[z.real, z.imag] for z in row] for row in net.u],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    sample_outs = []
    for name, workers in (("s1", "1"), ("s2", "1"), ("s3", "4")):
        out = tmp_path / f"{name}.csv"
        rc = cli_main([
            "sample", "--config", str(cfg_path), "--shots", "50000", "--seed", "11",
            "--workers", workers, "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        sample_outs.append(out.read_bytes())

    haar_outs = []
    for name in ("h1", "h2"):
        out = tmp_path / f"{name}.txt"
        assert cli_main(["haar", "--modes", "5", "--seed", "3", "--out", str(out)]) == 0
        haar_outs.append(out.read_bytes())

    ok = sample_outs[0] == sample_outs[1] == sample_outs[2] and haar_outs[0] == haar_outs[1]
    _report(9, ok, "sample byte-identical across runs and worker counts; haar byte-identical across runs")
