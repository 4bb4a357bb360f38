"""Symmetries and bounds every engine's probabilities obey, on random inputs and networks.

Values are compared within 1e-13 relative.  Exact zeros (odd N on pure squeezed
inputs, any click on vacuum) come out as roundoff, at most 8e-16 at M <= 10, so
they are checked against 0 within 1e-14 instead.
"""

import numpy as np
import pytest

from gbsim import build_qform, enumerate_patterns, haar_random, squeezed, squeezed_thermal, thermal, vacuum, validate_unitary
from gbsim.engines import applicable, probabilities

REL_TOL = 1e-13
ZERO_TOL = 1e-14


def _states(kind: str, m: int, rng) -> list:
    if kind == "thermal":
        return [thermal(1.0 + 2.0 * rng.random()) for _ in range(m)]
    if kind == "squeezed":
        return [squeezed(0.8 * rng.random()) for _ in range(m)]
    if kind == "vacuum":
        return [vacuum()] * m
    # mixed: a thermal first mode, so no pattern's probability is exactly 0
    makers = [lambda: thermal(1.0 + 2.0 * rng.random()), lambda: squeezed(0.8 * rng.random()),
              lambda: squeezed_thermal(1.0 + rng.random(), 0.5 * rng.random()), vacuum]
    return [makers[0](), *(makers[k]() for k in rng.integers(0, 4, m - 1))]


def _zeros(kind: str, patterns: np.ndarray) -> np.ndarray:
    """The patterns whose probability is exactly 0 for these inputs."""
    weights = patterns.sum(axis=1)
    return {"squeezed": weights % 2 == 1, "vacuum": weights > 0}.get(kind, np.zeros(len(patterns), dtype=bool))


def _assert_same(p: np.ndarray, q: np.ndarray, zero: np.ndarray, what: str) -> None:
    assert (np.abs(p[zero]) <= ZERO_TOL).all() and (np.abs(q[zero]) <= ZERO_TOL).all(), what
    rel = np.abs(p - q)[~zero] / np.maximum(p, q)[~zero]
    assert (rel <= REL_TOL).all(), f"{what}: relative gap {rel.max():.3e}"


def _case(kind: str, seed: int):
    """Random inputs of one kind on M <= 10 modes, a Haar network, and every 0/1 pattern."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 11))
    patterns = np.array(list(enumerate_patterns(m, m)), dtype=float)
    return rng, m, _states(kind, m, rng), haar_random(m, 1000 + seed), patterns


@pytest.mark.parametrize("kind", ["thermal", "squeezed", "mixed"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelling_modes(kind, seed):
    # inputs: U's rows with the states; outputs: U's columns with the pattern
    rng, m, states, net, patterns = _case(kind, seed)
    rows, cols = rng.permutation(m), rng.permutation(m)
    qf = build_qform(states, net)
    relabelled = build_qform([states[k] for k in rows], validate_unitary(net.u[rows][:, cols]))
    for name in applicable(qf):
        _assert_same(probabilities(qf, name, patterns), probabilities(relabelled, name, patterns[:, cols]), _zeros(kind, patterns), name)


@pytest.mark.parametrize("kind", ["thermal", "squeezed", "mixed"])
@pytest.mark.parametrize("seed", [3, 4])
def test_output_phases(kind, seed):
    # U -> U diag(e^{i phi}): photon counting cannot see a phase on an output mode
    rng, m, states, net, patterns = _case(kind, seed)
    qf = build_qform(states, net)
    shifted = build_qform(states, validate_unitary(net.u * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))))
    for name in applicable(qf):
        _assert_same(probabilities(qf, name, patterns), probabilities(shifted, name, patterns), _zeros(kind, patterns), name)


@pytest.mark.parametrize("kind, names", [("thermal", 2), ("squeezed", 2), ("vacuum", 3)])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_engines_agree_on_shared_domains(kind, names, seed):
    _, _, states, net, patterns = _case(kind, seed)
    qf = build_qform(states, net)
    assert len(engines := applicable(qf)) == names
    general = probabilities(qf, "general", patterns)
    for name in engines[1:]:
        _assert_same(general, probabilities(qf, name, patterns), _zeros(kind, patterns), name)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_click_patterns_hold_at_most_all_the_mass(seed):
    # the 0/1 patterns are some of all count patterns, so their probabilities sum to at most 1;
    # weak inputs put almost all the mass there, so a normalization off by a little shows
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    makers = [lambda: thermal(1.0 + 0.1 * rng.random()), lambda: squeezed(0.1 * rng.random()),
              lambda: squeezed_thermal(1.0 + 0.1 * rng.random(), 0.1 * rng.random()), vacuum]
    states = [makers[k]() for k in rng.integers(0, 4, m)]
    qf = build_qform(states, haar_random(m, seed))
    patterns = np.array(list(enumerate_patterns(m, m)), dtype=float)
    for name in applicable(qf):
        total = float(probabilities(qf, name, patterns).sum())
        assert 0.9 < total <= 1.0 + 1e-12, (name, total)
