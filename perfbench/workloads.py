"""The benchmark's workloads: inputs made from a seed, the ops a run times,
and the checks that each op's output is right.

A workload is a function `(seed, workdir, **sizes) -> Plan`.  A run repeats
the plan's pass a fixed number of times, set from `--seconds` and the pass's
nominal cost, so that two commits do the same work.  Pass 0 holds the
warm-up op of set-up; timed passes start at 1.

Checks compare against references the benchmark computes itself (closed
forms, a permutation-sum permanent, the exact thermal moments) or against a
second route through gbsim, never against a stored value.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gbsim as gb
import gbsim.cli  # noqa: F401  (binds gb.cli)

Z_LIMIT = 6.0  # standard errors allowed between a sampled and an exact value
REL_TOL = 1e-10  # closed forms and engine cross-checks
HEADROOM = 0.1  # gbsim's default PSD embedding headroom, passed explicitly
# Matrices are redrawn until the all-ones pattern is expected >= 200 times,
# twice gbsim's low-confidence threshold, so no estimate is flagged.
MIN_EXPECTED_HITS = 200


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # a message when the output is wrong
    work: float  # units of work the op completes (see Plan.work_unit)


@dataclass
class Plan:
    pass_ops: Callable[[int], list[Op]]
    work_unit: str
    stats: dict  # per-op facts the checks record, for the printed summary


def _rel_err(value, ref) -> float:
    return abs(value - ref) / abs(ref)


def _haar(rng: np.random.Generator, m: int):
    return gb.haar_random(m, int(rng.integers(2**62)))


def _subset_pattern(rng: np.random.Generator, m: int, n: int) -> tuple[int, ...]:
    on = set(rng.choice(m, size=n, replace=False).tolist())
    return tuple(int(k in on) for k in range(m))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _rank1(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """v v^dag with random phases on the unit circle, and n! prod |v_i|^2."""
    v = np.exp(2j * np.pi * rng.random(n))
    return np.outer(v, v.conj()), math.factorial(n) * float(np.prod(np.abs(v) ** 2))


def _bipartite(rng: np.random.Generator, half: int) -> tuple[np.ndarray, np.ndarray]:
    """A complex Gaussian A and [[0, A], [A^T, 0]], whose hafnian is per(A)."""
    a = _complex_gaussian(rng, (half, half))
    z = np.zeros((half, half))
    return a, np.block([[z, a], [a.T, z]])


def permanent_by_permutations(a: np.ndarray) -> complex:
    """Reference permanent: the n! permutation sum."""
    n = a.shape[0]
    return complex(sum(np.prod(a[np.arange(n), list(p)]) for p in itertools.permutations(range(n))))


def double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


# --- sample-thermal ---------------------------------------------------------


def _check_thermal_sample(report, states, nbar, net, shots) -> str | None:
    keys = np.array(list(report.histogram), dtype=np.float64)
    counts = np.array(list(report.histogram.values()), dtype=np.float64)
    if counts.sum() != shots:
        return f"histogram holds {counts.sum():.0f} shots, expected {shots}"
    mean = counts @ keys / shots
    var = counts @ keys**2 / shots - mean**2
    expected = (np.abs(net.u) ** 2).T @ nbar  # sum_j |U_jk|^2 nbar_j
    z = np.abs(mean - expected) / np.sqrt(var / shots)
    if z.max() > Z_LIMIT:
        return f"mode {int(z.argmax())} mean {mean[z.argmax()]:.5f} is {z.max():.1f} s.e. from {expected[z.argmax()]:.5f}"
    qf = gb.build_qform(states, net)
    for pat in itertools.product((0, 1), repeat=len(states)):
        p = gb.prob_thermal(qf, pat)
        if p < 1e-3:
            continue
        f = report.histogram.get(pat, 0) / shots
        z1 = abs(f - p) / math.sqrt(p * (1.0 - p) / shots)
        if z1 > Z_LIMIT:
            return f"pattern {pat} frequency {f:.6f} is {z1:.1f} s.e. from prob_thermal {p:.6f}"
    return None


def sample_thermal(seed: int, workdir: Path, modes: int, shots: int) -> Plan:
    vs = np.linspace(1.3, 3.2, modes)
    states = [gb.thermal(float(v)) for v in vs]
    nbar = (vs - 1.0) / 2.0

    def pass_ops(i: int) -> list[Op]:
        rng = np.random.default_rng([seed, i])
        net = _haar(rng, modes)
        s = int(rng.integers(2**62))
        return [
            Op(
                "sample_patterns",
                lambda: gb.sample_patterns(states, net, shots, s, workers=1),
                lambda rep: _check_thermal_sample(rep, states, nbar, net, shots),
                shots,
            )
        ]

    return Plan(pass_ops, "shots", {})


# --- psd-permanent ----------------------------------------------------------


def _wishart(rng: np.random.Generator, n: int, shots: int) -> tuple[np.ndarray, float]:
    """Complex Wishart PSD matrix with 2n degrees of freedom, and its permanent."""
    while True:
        g = _complex_gaussian(rng, (n, 2 * n))
        h = g @ g.conj().T / (2 * n)
        exact = permanent_by_permutations(h).real
        w = np.linalg.eigvalsh(h)
        q = w.max() / (1.0 - HEADROOM)
        p_ones = float(np.prod(1.0 - w / q)) * exact / q**n
        if p_ones * shots >= MIN_EXPECTED_HITS:
            return h, exact


def _check_estimate(est, exact: float, stats: dict) -> str | None:
    stats.setdefault("rel_stderr", []).append(est.stderr / est.estimate if est.estimate else math.inf)
    if est.low_confidence:
        return f"low confidence: {est.count} all-ones hits"
    if est.exact is None or _rel_err(est.exact, exact) > REL_TOL:
        return f"Ryser cross-check {est.exact} differs from the permutation sum {exact}"
    if abs(est.estimate - exact) > Z_LIMIT * est.stderr:
        return f"estimate {est.estimate:.6g} is {abs(est.estimate - exact) / est.stderr:.1f} s.e. from per(H) = {exact:.6g}"
    return None


def psd_permanent(seed: int, workdir: Path, n: int, shots: int) -> Plan:
    stats: dict = {}

    def pass_ops(i: int) -> list[Op]:
        rng = np.random.default_rng([seed, i])
        h, exact = _wishart(rng, n, shots)
        s = int(rng.integers(2**62))
        return [
            Op(
                "estimate_permanent",
                lambda: gb.estimate_permanent(h, shots, s, headroom=HEADROOM, workers=1),
                lambda est: _check_estimate(est, exact, stats),
                shots,
            )
        ]

    return Plan(pass_ops, "shots", stats)


# --- exact-kernels ----------------------------------------------------------


def permanent_terms(n: int) -> int:
    """Nominal Ryser work at size n: n^2 2^n."""
    return n * n * 2**n


def hafnian_terms(n: int) -> int:
    """Nominal subset-DP hafnian work at size n: n 2^(n-1)."""
    return n * 2 ** (n - 1)


def _probability(value) -> str | None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return f"probability {value!r} is not in [0, 1]"
    return None


def _same_as_first(seen: dict, label: str, value) -> str | None:
    first = seen.setdefault(label, value)
    if first != value:
        return f"{value!r} differs from the first result {first!r}"
    return None


def _closed_form(value, ref) -> str | None:
    if _rel_err(value, ref) > REL_TOL:
        return f"{value!r} differs from the closed form {ref!r} by {_rel_err(value, ref):.2e} relative"
    return None


def exact_kernels(seed: int, workdir: Path, perm_n: int, haf_n: int, cross_n: int) -> Plan:
    rng = np.random.default_rng(seed)
    half = haf_n // 2

    th_m = perm_n + 4
    th = gb.build_qform([gb.thermal(float(v)) for v in rng.uniform(1.3, 3.2, th_m)], _haar(rng, th_m))
    th_pat = _subset_pattern(rng, th_m, perm_n)
    sq_m = haf_n + 2
    sq = gb.build_qform([gb.squeezed(float(r)) for r in rng.uniform(0.3, 0.9, sq_m)], _haar(rng, sq_m))
    sq_pat = _subset_pattern(rng, sq_m, haf_n)
    gen_m = half + 3
    mixed = [gb.squeezed_thermal(float(v), float(r)) for v, r in zip(rng.uniform(1.1, 2.0, gen_m), rng.uniform(0.2, 0.6, gen_m))]
    gen = gb.build_qform(mixed, _haar(rng, gen_m))
    gen_pat = _subset_pattern(rng, gen_m, half)

    rank1, rank1_ref = _rank1(rng, perm_n)
    ones = np.ones((haf_n, haf_n))
    a, bip = _bipartite(rng, half)

    cr_m = cross_n + 2
    cr_net = _haar(rng, cr_m)
    cr_th = gb.build_qform([gb.thermal(float(v)) for v in rng.uniform(1.3, 3.2, cr_m)], cr_net)
    cr_sq = gb.build_qform([gb.squeezed(float(r)) for r in rng.uniform(0.3, 0.9, cr_m)], cr_net)
    cr_pat = _subset_pattern(rng, cr_m, cross_n)

    seen: dict = {}

    def engine(label):
        return lambda p: _probability(p) or _same_as_first(seen, label, p)

    def agree(label):
        def check(pair):
            g, other = pair
            return (
                _probability(g)
                or _probability(other)
                or _closed_form(g, other)
                or _same_as_first(seen, label, pair)
            )

        return check

    ops = [
        Op("prob_thermal", lambda: gb.prob_thermal(th, th_pat), engine("prob_thermal"), permanent_terms(perm_n)),
        Op("prob_squeezed", lambda: gb.prob_squeezed(sq, sq_pat), engine("prob_squeezed"), hafnian_terms(haf_n)),
        Op("prob_general", lambda: gb.prob_general(gen, gen_pat), engine("prob_general"), hafnian_terms(haf_n)),
        Op(
            "permanent_rank1",
            lambda: gb.permanent(rank1),
            lambda x: _closed_form(x, rank1_ref) or _same_as_first(seen, "permanent_rank1", x),
            permanent_terms(perm_n),
        ),
        Op(
            "hafnian_ones",
            lambda: gb.hafnian(ones),
            lambda x: _closed_form(x, double_factorial(haf_n - 1)) or _same_as_first(seen, "hafnian_ones", x),
            hafnian_terms(haf_n),
        ),
        Op(
            "hafnian_bipartite",
            lambda: gb.hafnian(bip),
            lambda x: _closed_form(x, gb.permanent(a)) or _same_as_first(seen, "hafnian_bipartite", x),
            hafnian_terms(haf_n),
        ),
        Op(
            "general_vs_thermal",
            lambda: (gb.prob_general(cr_th, cr_pat), gb.prob_thermal(cr_th, cr_pat)),
            agree("general_vs_thermal"),
            hafnian_terms(2 * cross_n) + permanent_terms(cross_n),
        ),
        Op(
            "general_vs_squeezed",
            lambda: (gb.prob_general(cr_sq, cr_pat), gb.prob_squeezed(cr_sq, cr_pat)),
            agree("general_vs_squeezed"),
            hafnian_terms(2 * cross_n) + hafnian_terms(cross_n),
        ),
    ]
    return Plan(lambda i: ops, "kernel_terms", {})


# --- cli-batch --------------------------------------------------------------


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _write_matrix(path: Path, m: np.ndarray) -> None:
    path.write_text("\n".join(" ".join(_format_complex(z) for z in row) for row in m) + "\n")


def _write_config(path: Path, states: list[dict], u: np.ndarray, n_max: int, unitary_file: str | None) -> None:
    if unitary_file is None:
        unitary = [[[z.real, z.imag] for z in row] for row in u]
    else:
        _write_matrix(path.parent / unitary_file, u)
        unitary = {"file": unitary_file}
    cfg = {"schema": 1, "modes": len(states), "states": states, "unitary": unitary, "n_max": n_max}
    path.write_text(json.dumps(cfg))


def _crosscheck_deltas(text: str) -> str | None:
    rows = csv.DictReader(io.StringIO("".join(ln for ln in text.splitlines(True) if not ln.startswith("#"))))
    for row in rows:
        p, delta = float(row["probability"]), float(row["crosscheck_delta"])
        # Odd-N patterns of pure squeezed inputs vanish exactly on one route
        # and to roundoff on the other, hence the absolute floor.
        if delta > REL_TOL * p + 1e-12:
            return f"pattern {row['pattern']}: crosscheck_delta {delta:.3e} at p = {p:.3e}"
    return None


def cli_batch(seed: int, workdir: Path, modes: int, n_max: int, mixed_modes: int, mat_n: int) -> Plan:
    rng = np.random.default_rng(seed)
    inp, out = workdir / "in", workdir / "out"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)

    def u(m):
        return np.asarray(_haar(rng, m).u)

    thermal = [{"type": "thermal", "v": float(v)} for v in rng.uniform(1.3, 3.2, modes)]
    squeezed = [{"type": "squeezed", "r": float(r)} for r in rng.uniform(0.3, 0.9, modes)]
    mixed = [{"type": "squeezed_thermal", "v": float(v), "r": float(r)} for v, r in zip(rng.uniform(1.1, 2.0, mixed_modes), rng.uniform(0.2, 0.6, mixed_modes))]
    _write_config(inp / "thermal.json", thermal, u(modes), n_max, "thermal_u.txt")
    _write_config(inp / "squeezed.json", squeezed, u(modes), n_max, None)
    _write_config(inp / "mixed.json", mixed, u(mixed_modes), n_max - 1, "mixed_u.txt")
    # Fixed mild states: the Fock oracle caps its cutoff at 24, and its
    # cost and memory follow the cutoff, which the states alone set.
    oracle_thermal = [{"type": "thermal", "v": 1.4}, {"type": "thermal", "v": 1.8}]
    oracle_squeezed = [{"type": "squeezed", "r": 0.25}, {"type": "squeezed", "r": 0.4}]
    _write_config(inp / "oracle_thermal.json", oracle_thermal, u(2), 2, None)
    _write_config(inp / "oracle_squeezed.json", oracle_squeezed, u(2), 2, "oracle_u.txt")

    rank1, rank1_ref = _rank1(rng, mat_n)
    _write_matrix(inp / "rank1.txt", rank1)
    a, bip = _bipartite(rng, mat_n // 2)
    _write_matrix(inp / "a.txt", a)
    _write_matrix(inp / "bipartite.txt", bip)

    patterns = sum(math.comb(modes, k) for k in range(n_max + 1))
    commands = [
        ("haar", ["haar", "--modes", str(modes), "--seed", str(seed)], 0, None),
        ("prob_thermal", ["prob", "--config", str(inp / "thermal.json"), "--validate", "--format", "csv"], patterns, _crosscheck_deltas),
        ("prob_squeezed", ["prob", "--config", str(inp / "squeezed.json"), "--validate", "--format", "csv"], patterns, _crosscheck_deltas),
        ("prob_mixed", ["prob", "--config", str(inp / "mixed.json")], sum(math.comb(mixed_modes, k) for k in range(n_max)), None),
        ("permanent_rank1", ["permanent", str(inp / "rank1.txt")], 0, lambda t: _closed_form(complex(t), rank1_ref)),
        ("permanent_a", ["permanent", str(inp / "a.txt")], 0, None),
        ("hafnian_bipartite", ["hafnian", str(inp / "bipartite.txt")], 0, lambda t: _closed_form(complex(t), complex((out / "permanent_a.txt").read_text()))),
        ("validate_thermal", ["validate", "--config", str(inp / "oracle_thermal.json"), "--oracle"], 4, None),
        ("validate_squeezed", ["validate", "--config", str(inp / "oracle_squeezed.json"), "--oracle"], 4, None),
    ]
    seen: dict = {}

    def make_check(label, path, extra):
        def check(rc):
            if rc != 0:
                return f"exit code {rc}"
            text = path.read_text()
            return (extra(text) if extra else None) or _same_as_first(seen, label, text)

        return check

    ops = []
    for label, argv, work, extra in commands:
        path = out / f"{label}.txt"
        full = argv + ["--out", str(path)]
        ops.append(Op(label, lambda full=full: gb.cli.main(full), make_check(label, path, extra), work))
    return Plan(lambda i: ops, "patterns", {})


# --- the defects ROADMAP records, read as numbers ---------------------------


def bright_mean_ratio(v: float = 1001.0, shots: int = 20_000, seed: int = 1) -> float:
    """Sampled / exact mean count of one bright thermal mode behind the identity."""
    rep = gb.sample_patterns([gb.thermal(v)], gb.validate_unitary(np.eye(1)), shots, seed)
    mean = sum(k[0] * c for k, c in rep.histogram.items()) / shots
    return mean / ((v - 1.0) / 2.0)


def seed_collision(shots: int = 4096) -> int:
    """1 if seed 2**64 reproduces the histogram of seed 0, 0 if not or if it is refused."""
    states = [gb.thermal(2.0), gb.thermal(3.0)]
    net = gb.validate_unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    try:
        high = gb.sample_patterns(states, net, shots, 2**64).histogram
    except gb.ValidationError:
        return 0
    return int(high == gb.sample_patterns(states, net, shots, 0).histogram)


# name -> (plan builder, sizes, nominal seconds per pass at these sizes on a
# 2-core x86-64 box; the pass count of a run is --seconds / that, so it is
# the same for every commit)
WORKLOADS = {
    "sample-thermal": (sample_thermal, {"modes": 6, "shots": 2**18}, 1.2),
    "psd-permanent": (psd_permanent, {"n": 4, "shots": 400_000}, 1.5),
    "exact-kernels": (exact_kernels, {"perm_n": 20, "haf_n": 18, "cross_n": 8}, 4.0),
    "cli-batch": (cli_batch, {"modes": 10, "n_max": 4, "mixed_modes": 8, "mat_n": 12}, 0.45),
}
