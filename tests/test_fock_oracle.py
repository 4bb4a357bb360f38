import math
import tracemalloc

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
from gbsim import fock_oracle
from gbsim.engines import applicable, probabilities
from gbsim.fock_oracle import FockState, _row_mass, apply_network, pattern_probabilities, prepare_input
from statutil import photon_number_distribution, photon_number_law


def bs_kernel(dim: int, theta: float) -> np.ndarray:
    """Number-basis matrix of exp[theta (a_i^dag a_j - a_i a_j^dag)] by convolution.

    Real (dim^2, dim^2) matrix indexed [p * dim + q, n1 * dim + n2]: the two
    modes' binomial expansions, convolved.  Exact on every sector with
    n1 + n2 <= dim - 1.
    """
    c, s = math.cos(theta), math.sin(theta)
    lg = [math.lgamma(n + 1) for n in range(2 * dim)]
    kern = np.zeros((dim * dim, dim * dim))
    for n1 in range(dim):
        p1 = np.array([math.comb(n1, r) * (c**r) * ((-s) ** (n1 - r)) for r in range(n1 + 1)])
        for n2 in range(dim):
            p2 = np.array([math.comb(n2, t) * (s**t) * (c ** (n2 - t)) for t in range(n2 + 1)])
            amp = np.convolve(p1, p2)
            total = n1 + n2
            col = n1 * dim + n2
            lo, hi = max(0, total - (dim - 1)), min(total, dim - 1)
            for p in range(lo, hi + 1):
                q = total - p
                w = math.exp(0.5 * (lg[p] + lg[q] - lg[n1] - lg[n2]))
                kern[p * dim + q, col] = amp[p] * w
    return kern


def thermal_law(nbar: float, length: int) -> np.ndarray:
    return np.array([nbar**n / (nbar + 1.0) ** (n + 1) for n in range(length)])


def squeezed_law(r: float, length: int) -> np.ndarray:
    return np.array(
        [math.comb(n, n // 2) * (math.tanh(r) / 2) ** n / math.cosh(r) if n % 2 == 0 else 0.0 for n in range(length)]
    )


class TestBasis:
    """The stars-and-bars index: `_basis` lists each sector in rank order and `_rank` inverts it."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 64, 70])
    def test_rank_numbers_every_sector(self, m):
        # every sector the basis cap admits: n = 1 and 2 at m = 64 and 70, where the old binomial loop overflowed
        for n in (n for n in range(fock_oracle.MAX_BASIS_DIM) if math.comb(n + m, m) <= fock_oracle.MAX_BASIS_DIM):
            basis = fock_oracle._basis(n, m)
            assert basis.shape == (math.comb(n + m - 1, m - 1), m)
            assert (basis.sum(axis=1) == n).all() and (basis >= 0).all()
            assert len(np.unique(basis, axis=0)) == len(basis)
            assert np.array_equal(fock_oracle._rank(basis), np.arange(len(basis))), (n, m)

    def test_basis_builds_no_grid(self):
        # 220 rows of 10 modes; the (3 + 1)^9 index grid alone would be 18.9 MB
        tracemalloc.start()
        try:
            fock_oracle._basis.__wrapped__(3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_seventy_thermal_modes(self):
        # one ket column per configuration, however many modes; the oracle then
        # agrees with the thermal engine on vacuum and on every one-photon pattern
        states = [thermal(v) for v in np.random.default_rng(7).uniform(1.1, 1.6, 70)]
        net = haar_random(70, 70)
        st = prepare_input(states, cutoff=1)
        assert [kets.shape for kets in st.sectors] == [(1, 1), (70, 70)]
        out = apply_network(st, net)
        qf = build_qform(states, net)
        patterns = np.vstack([np.zeros(70, dtype=int), np.eye(70, dtype=int)])
        assert np.abs(pattern_probabilities(out, patterns) - probabilities(qf, "thermal", patterns)).max() <= 1e-15


class TestPrepareInput:
    def test_vacuum_single_entry(self):
        st = prepare_input([vacuum()] * 2, cutoff=4)
        assert st.sectors[0].tolist() == [[1.0]]
        assert all(not kets.any() for kets in st.sectors[1:])
        assert st.tail_bound == 0.0

    def test_thermal_geometric_law(self):
        st = prepare_input([thermal(3.0)], cutoff=2)
        assert st.tail_bound == pytest.approx(0.125, abs=1e-15)
        assert pattern_probabilities(st, [(0,), (1,), (2,)]).tolist() == pytest.approx([0.5, 0.25, 0.125], abs=1e-15)

    def test_squeezed_even_structure(self):
        r = 0.5
        st = prepare_input([squeezed(r)], cutoff=3)
        p0, p1, p3 = pattern_probabilities(st, [(0,), (1,), (3,)])
        assert p0 == pytest.approx(1 / math.cosh(r), rel=1e-13)
        assert p1 == p3 == 0.0

    def test_captured_mass_plus_tail_is_one(self):
        # the mass beyond the cutoff is the convolution of the per-mode laws
        cutoff = 16
        st = prepare_input([thermal(2.0), squeezed(0.3)], cutoff=cutoff)
        tail = 1.0 - np.convolve(thermal_law(0.5, cutoff + 1), squeezed_law(0.3, cutoff + 1))[: cutoff + 1].sum()
        captured = photon_number_distribution(st).sum()
        assert tail > 1e-9
        assert captured + tail == pytest.approx(1.0, abs=1e-12)
        assert st.tail_bound == pytest.approx(tail, abs=1e-12)
        out = apply_network(st, haar_random(2, 4))
        assert photon_number_distribution(out).sum() == pytest.approx(captured, abs=1e-12)

    def test_layer_passes_cap(self):
        # M(M-1)/2 layers over the d_N^2 entries of each sector up to max(cutoff, 1), at most MAX_BASIS_DIM^2
        assert prepare_input([vacuum()] * 5, cutoff=0).modes == 5
        for m, cutoff in [(7, 6), (77, 0)]:
            with pytest.raises(CutoffError, match="layer passes .* above the cap 4096\\^2"):
                prepare_input([vacuum()] * m, cutoff)
        with pytest.raises(ValidationError, match="at least one mode"):
            prepare_input([], cutoff=0)

    @pytest.mark.parametrize(
        "m, largest",
        [(1, 4095), (2, 89), (3, 27), (4, 15), (5, 9), (6, 7), (7, 5), (8, 4), (9, 4), (10, 3), (12, 3), (13, 2), (22, 2), (23, 1), (76, 1)],
    )
    def test_largest_cutoff(self, m, largest):
        # the basis bound alone up to four modes, then the layer passes' bound
        assert prepare_input([vacuum()] * m, largest).cutoff == largest
        with pytest.raises(CutoffError, match="cap"):
            prepare_input([vacuum()] * m, largest + 1)

    def test_dimension_cap(self):
        # C(15 + 4, 4) = 3876 basis states fit under the cap, C(16 + 4, 4) = 4845 do not
        assert prepare_input([vacuum()] * 4, cutoff=15).cutoff == 15
        with pytest.raises(CutoffError, match="cap"):
            prepare_input([vacuum()] * 4, cutoff=16)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="cutoff must be non-negative"):
            prepare_input([vacuum()], cutoff=-1)

    @pytest.mark.parametrize("cutoff", [2.5, True, "2"])
    def test_non_integer_cutoff_rejected(self, cutoff):
        with pytest.raises(ValidationError, match="cutoff must be an integer"):
            prepare_input([thermal(2.0)], cutoff)

    @pytest.mark.parametrize("cutoff", [np.int64(2), np.uint64(2)])
    def test_numpy_integer_cutoff_runs(self, cutoff):
        st = prepare_input([thermal(2.0)], cutoff)
        assert type(st.cutoff) is int and st.cutoff == 2

    def test_squeezed_thermal_unsupported(self):
        with pytest.raises(ValidationError):
            prepare_input([squeezed_thermal(1.5, 0.3)], cutoff=0)


class TestApplyNetwork:
    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="network has 3 modes, state has 2"):
            apply_network(prepare_input([vacuum()] * 2, cutoff=1), haar_random(3, 1))

    def test_identity_network(self):
        st = prepare_input([thermal(2.0), squeezed(0.4)], cutoff=20)
        out = apply_network(st, validate_unitary(np.eye(2)))
        assert np.abs(photon_number_distribution(out) - photon_number_distribution(st)).max() < 1e-14

    def test_single_photon_on_splitter(self):
        # |1,0> through a 50:50 splitter: equal weight on (1,0) and (0,1)
        one = np.array([[float(row == (1, 0))] for row in map(tuple, fock_oracle._basis(1, 2))])
        st = FockState(cutoff=1, modes=2, sectors=[np.zeros((1, 1)), one], tail_bound=0.0)
        bs = validate_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        out = apply_network(st, bs)
        assert pattern_probabilities(out, [(1, 0), (0, 1)]).tolist() == pytest.approx([0.5, 0.5], abs=1e-13)

    def test_tmsv_exact_up_to_cutoff(self):
        # P(n, n) = tanh^2n r / cosh^2 r for every pattern inside the cutoff;
        # (16, 16) has 32 photons, outside it, and is refused, not approximated
        r = 0.5
        st = apply_network(prepare_input([squeezed(r)] * 2, cutoff=30), tmsv_network())
        expect = [math.tanh(r) ** (2 * n) / math.cosh(r) ** 2 for n in range(16)]
        assert pattern_probabilities(st, [(n, n) for n in range(16)]).tolist() == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ValidationError, match="truncated basis"):
            pattern_probabilities(st, [(16, 16)])

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

    def test_starved_cutoff_is_exact(self):
        # cutoff 8 drops P(N > 8) = 11/1024 of two thermal(3.0) modes, yet every
        # pattern with at most 8 photons keeps its exact probability: the output
        # counts of equal thermal inputs are independent whatever the network
        st = apply_network(prepare_input([thermal(3.0), thermal(3.0)], cutoff=8), haar_random(2, 3))
        assert st.tail_bound == pytest.approx(11 / 1024, abs=1e-12)
        law = thermal_law(1.0, 9)
        patterns = [(n1, n2) for n1 in range(9) for n2 in range(9 - n1)]
        expect = [law[n1] * law[n2] for n1, n2 in patterns]
        assert pattern_probabilities(st, patterns).tolist() == pytest.approx(expect, rel=1e-12)
        assert st.leakage == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "inputs",
        [
            [thermal(1.6), thermal(1.3), thermal(2.2), thermal(1.2)],
            [squeezed(0.3), squeezed(0.2), squeezed(0.45), squeezed(0.1)],
            [thermal(1.4), squeezed(0.25), vacuum(), squeezed(0.15)],
            [vacuum()] * 4,
        ],
        ids=["thermal", "squeezed", "mixed", "vacuum"],
    )
    def test_probabilities_do_not_depend_on_cutoff(self, m, inputs):
        # every pattern reads the same float at each cutoff from |n| up as at cutoff 9
        states, net = inputs[:m], haar_random(m, 30 + m)
        wide = apply_network(prepare_input(states, cutoff=9), net)
        for c in range(4):
            st = apply_network(prepare_input(states, cutoff=c), net)
            patterns = [p for p in np.ndindex(*(c + 1,) * m) if sum(p) <= c]
            assert pattern_probabilities(st, patterns).tolist() == pattern_probabilities(wide, patterns).tolist(), c

    @pytest.mark.parametrize("m, cutoff", [(2, 40), (3, 20), (4, 12)])
    def test_sector_unitaries(self, m, cutoff):
        us = list(fock_oracle._sector_unitaries(haar_random(m, 5), cutoff))
        assert [len(u) for u in us] == [math.comb(n + m - 1, m - 1) for n in range(cutoff + 1)]
        for u in us:
            assert np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-13

    def test_sector_one_is_the_network(self):
        # one photon entering mode i leaves mode k with amplitude U[i, k]
        net = haar_random(3, 6)
        u1 = list(fock_oracle._sector_unitaries(net, 1))[1]
        ranks = [fock_oracle._basis(1, 3).tolist().index(row) for row in np.eye(3, dtype=int).tolist()]
        assert np.abs(u1[np.ix_(ranks, ranks)].T - net.u).max() < 1e-14

    def test_non_unitary_sector_raises(self, monkeypatch):
        st = prepare_input([thermal(2.0), thermal(1.5)], cutoff=2)
        monkeypatch.setattr(fock_oracle, "_UNITARITY_TOL", -1.0)
        with pytest.raises(CutoffError, match="unitary"):
            apply_network(st, haar_random(2, 3))

    def test_sector_one_off_the_network_raises(self, monkeypatch):
        # the sweep runs at the real tolerance, so only the sector-1 check sees -1
        net = haar_random(2, 3)
        sweep = fock_oracle._givens(net.u)
        monkeypatch.setattr(fock_oracle, "_givens", lambda u: sweep)
        monkeypatch.setattr(fock_oracle, "DEFAULT_UNITARITY_TOL", -1.0)
        with pytest.raises(ValidationError, match="sector 1"):
            apply_network(prepare_input([thermal(2.0), thermal(1.5)], cutoff=2), net)

    def test_unreduced_sweep_raises(self, monkeypatch):
        # the sweep's own check, forced by a negative tolerance
        monkeypatch.setattr(fock_oracle, "DEFAULT_UNITARITY_TOL", -1e-13)
        with pytest.raises(ValidationError, match="decomposition failed to reduce the matrix to diagonal phases") as exc:
            fock_oracle._givens(haar_random(3, 4).u)
        assert exc.type is ValidationError

    @pytest.mark.parametrize("case", ["scaled", "perturbed"])
    def test_accepts_every_network_validate_unitary_accepts(self, case):
        # the Givens layers are exactly unitary where U is not; sector 1 with the
        # sweep's residue recomposes U to roundoff whatever U's own defect
        if case == "scaled":
            u = haar_random(3, 8).u * (1 + 2e-11)
        else:  # an amplitude-level recomposition misses this U by 1.08e-10
            re, im = np.random.default_rng([96, 1]).standard_normal((2, 4, 4))
            e = re + 1j * im
            u = haar_random(4, 96).u + 7e-11 * e / np.abs(e).max()
        net = validate_unitary(u)
        assert 3e-11 < net.unitarity_defect <= 1e-10
        states = [thermal(1.6), squeezed(0.3), vacuum(), thermal(1.2)][: net.m]
        fock = apply_network(prepare_input(states, cutoff=3), net)
        qf = build_qform(states, net)
        patterns = list(enumerate_patterns(net.m, 3))
        assert np.abs(pattern_probabilities(fock, patterns) - probabilities(qf, "general", patterns)).max() <= 1e-9


class TestBeamSplitterBlocks:
    @pytest.mark.parametrize("theta", [0.3, -1.1, math.pi / 4, 2.5])
    def test_eigen_blocks_match_convolution(self, theta):
        dim = 31
        kern = bs_kernel(dim, theta)
        for s in range(dim):
            rows = [p * dim + (s - p) for p in range(s + 1)]
            assert np.abs(fock_oracle._bs_block(s, theta) - kern[np.ix_(rows, rows)]).max() <= 1e-12

    def test_blocks_orthogonal(self):
        for s in range(41):
            k = fock_oracle._bs_block(s, 0.7)
            assert np.abs(k @ k.T - np.eye(s + 1)).max() <= 1e-14


class TestPatternProbability:
    @pytest.fixture(scope="class")
    def state(self):
        return apply_network(prepare_input([thermal(2.0), thermal(1.5)], cutoff=3), haar_random(2, 3))

    @pytest.mark.parametrize("pattern", [(1.9, 0), ("1", 0), (0.5, 1), (-1, 0), (1,), (1, 0, 0), (None, 0)])
    def test_rejects_malformed_pattern(self, state, pattern):
        # never truncated to another pattern
        with pytest.raises(ValidationError, match=r"^patterns\[0\]: pattern"):
            pattern_probabilities(state, [pattern])

    def test_accepts_integer_values(self, state):
        expect = pattern_probabilities(state, [(2, 1)])
        for pattern in [(2.0, 1.0), (np.int64(2), True), np.array([2, 1])]:
            assert pattern_probabilities(state, [pattern]).tolist() == expect.tolist()

    def test_rejects_counts_above_cutoff(self, state):
        with pytest.raises(ValidationError, match=r"^patterns\[2\]: pattern \(4, 0\) has 4 photons, outside the truncated basis \(at most 3\)$"):
            pattern_probabilities(state, [(0, 0), (1, 1), (state.cutoff + 1, 0)])
        # counts whose int64 sum would wrap
        with pytest.raises(ValidationError, match=f"^patterns\\[0\\]: .* has {2**63} photons"):
            pattern_probabilities(state, [(2**62, 2**62)])

    @pytest.mark.parametrize("m, cutoff", [(1, 6), (2, 5), (3, 4), (4, 3)])
    def test_table_equals_the_one_pattern_lookup(self, m, cutoff):
        # bit for bit as one rank and one row's mass read each pattern alone, in
        # any order and with repeats
        states = [thermal(1.6), squeezed(0.3), vacuum(), thermal(1.2)][:m]
        st = apply_network(prepare_input(states, cutoff), haar_random(m, 40 + m))
        patterns = [p for p in np.ndindex(*(cutoff + 1,) * m) if sum(p) <= cutoff]
        rng = np.random.default_rng(m)
        patterns = [patterns[i] for i in rng.integers(len(patterns), size=2 * len(patterns))]
        ranks = [int(fock_oracle._rank(np.array(p))) for p in patterns]
        one = [float(_row_mass(st.sectors[sum(p)][r : r + 1])[0]) for p, r in zip(patterns, ranks)]
        assert pattern_probabilities(st, patterns).tolist() == one


class TestEngineAgreement:
    def test_thermal_m2(self):
        states = [thermal(2.0), thermal(1.5)]
        net = haar_random(2, 9)
        st = apply_network(prepare_input(states, cutoff=2), net)
        qf = build_qform(states, net)
        patterns = list(enumerate_patterns(2, 2))
        for pat, o in zip(patterns, pattern_probabilities(st, patterns)):
            assert abs(prob_thermal(qf, pat) - o) < 1e-6
            assert abs(prob_general(qf, pat) - o) < 1e-6

    def test_squeezed_m2(self):
        states = [squeezed(0.35), squeezed(0.25)]
        net = haar_random(2, 10)
        st = apply_network(prepare_input(states, cutoff=24), net)
        qf = build_qform(states, net)
        patterns = list(enumerate_patterns(2, 2))
        for pat, o in zip(patterns, pattern_probabilities(st, patterns)):
            assert abs(prob_squeezed(qf, pat) - o) < 1e-6
            assert abs(prob_general(qf, pat) - o) < 1e-6

    @pytest.mark.parametrize(
        "states, engines",
        [
            ([thermal(1.3), thermal(1.2), thermal(1.4), thermal(1.25)], (prob_thermal, prob_general)),
            ([squeezed(0.15), squeezed(0.1), squeezed(0.2), squeezed(0.12)], (prob_squeezed, prob_general)),
            ([thermal(1.3), squeezed(0.15), vacuum(), squeezed(0.1)], (prob_general,)),
        ],
        ids=["thermal", "squeezed", "mixed"],
    )
    def test_m4(self, states, engines):
        net = haar_random(4, 11)
        st = apply_network(prepare_input(states, cutoff=4), net)
        qf = build_qform(states, net)
        patterns = list(enumerate_patterns(4, 4))
        for pat, o in zip(patterns, pattern_probabilities(st, patterns)):
            for engine in engines:
                assert abs(engine(qf, pat) - o) < 1e-6

    def test_strong_squeezing_relative(self):
        # the oracle's amplitudes carry 1/sqrt(cosh r) per mode, so it checks K itself;
        # a K taken as sqrt(mu^2 - 4 lam^2) cancels and missed by 1.6e-7 relative here
        states = [squeezed(8.0), squeezed(12.0)]
        net = haar_random(2, 6)
        st = apply_network(prepare_input(states, cutoff=2), net)
        qf = build_qform(states, net)
        for pat, o in zip([(0, 0), (1, 1)], pattern_probabilities(st, [(0, 0), (1, 1)])):
            for engine in (prob_squeezed, prob_general):
                assert engine(qf, pat) == pytest.approx(o, rel=1e-14, abs=0.0), (pat, engine.__name__)


class TestAboveFourModes:
    """The oracle at the largest cutoff the cap admits at M = 6, 12, 22 and 76,
    M(M-1)/2 Givens layers deep, on thermal, squeezed and mixed inputs."""

    @pytest.fixture(
        scope="class",
        params=[(m, cutoff, kind) for m, cutoff in [(6, 7), (12, 3), (22, 2), (76, 1)] for kind in ["thermal", "squeezed", "mixed"]],
        ids=lambda p: "-".join(map(str, p)),
    )
    def case(self, request):
        m, cutoff, kind = request.param
        rng = np.random.default_rng([27, m])
        modes = zip(rng.uniform(1.1, 2.0, m), rng.uniform(0.1, 0.5, m))
        states = [
            {"thermal": thermal(v), "squeezed": squeezed(r), "mixed": [thermal(v), squeezed(r), vacuum()][k % 3]}[kind]
            for k, (v, r) in enumerate(modes)
        ]
        net = haar_random(m, 27 + m)
        return kind, states, net, apply_network(prepare_input(states, cutoff), net)

    def test_sector_mass_is_the_photon_number_law(self, case):
        # the network conserves N, so sector N holds the inputs' P(N) whatever U
        kind, states, _, fock = case
        law = photon_number_law([v for s in states for v in (s.v_x, s.v_p)], fock.cutoff)
        for n, kets in enumerate(fock.sectors):
            mass = float(_row_mass(kets).sum())
            if kind == "squeezed" and n % 2:  # odd N vanishes; the law reads 0 up to its own roundoff
                assert abs(mass - law[n]) <= 1e-14, n
            else:
                assert abs(mass - law[n]) <= 1e-13 * law[n], n

    def test_agrees_with_every_applicable_engine(self, case):
        _, states, net, fock = case
        patterns = np.array(list(enumerate_patterns(net.m, min(net.m, fock.cutoff))), dtype=bool)
        oracle = pattern_probabilities(fock, patterns)
        qf = build_qform(states, net)
        for name in applicable(qf):
            assert np.abs(probabilities(qf, name, patterns) - oracle).max() <= 4e-15, name
