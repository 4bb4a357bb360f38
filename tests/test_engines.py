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
from gbsim import engines
from gbsim.engines import applicable, probabilities
from gbsim.matrix_functions import detected_modes, hafnian
from statutil import photon_number_law

# the single-pattern engines, by the names `applicable` returns
ONE_PATTERN = {"general": prob_general, "thermal": prob_thermal, "squeezed": prob_squeezed}


def rel_close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def test_general_equals_squeezed_at_eight_detections():
    # a 16x16 pairing hafnian against an 8x8 one; an inclusion-exclusion
    # (power-trace) hafnian misses this by about 6e-11
    rng = np.random.default_rng(810)
    qf = build_qform([squeezed(r) for r in rng.uniform(0.3, 0.9, 10)], haar_random(10, 810))
    pattern = (1,) * 8 + (0, 0)
    assert rel_close(prob_general(qf, pattern), prob_squeezed(qf, pattern), tol=1e-12)


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

    @pytest.mark.parametrize(
        "m, n_max, what", [(3, 1.5, "n_max"), (3, True, "n_max"), ("3", 1, "mode count"), (3.0, 1, "mode count")]
    )
    def test_non_integer_arguments_rejected(self, m, n_max, what):
        with pytest.raises(ValidationError, match=f"{what} must be an integer"):
            list(enumerate_patterns(m, n_max))

    @pytest.mark.parametrize("n_max, match", [(5, r"n_max must be in \[0, 3\], got 5"), (True, "n_max must be an integer")])
    def test_arguments_checked_at_the_call(self, n_max, match):
        # raised by the call itself, before any pattern is asked for
        with pytest.raises(ValidationError, match=match):
            enumerate_patterns(3, n_max)

    def test_numpy_integers_run(self):
        assert list(enumerate_patterns(np.int64(3), np.uint64(1))) == list(enumerate_patterns(3, 1))


class TestStructure:
    def test_pairing_matrix_blocks(self):
        states = [squeezed_thermal(1.4, 0.3), thermal(2.0), squeezed(0.5)]
        qf = build_qform(states, haar_random(3, 60))
        b = engines._pairing_matrices(qf, np.array([[0, 2]]))[0]  # pattern (1, 0, 1)
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
    qf = build_qform([vacuum()] * 2, validate_unitary(np.eye(2)))
    return [lambda pat, fn=fn: fn(qf, pat) for fn in ONE_PATTERN.values()]


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
                ONE_PATTERN[name](qf, (1, 1))
            else:
                with pytest.raises(ContractError):
                    ONE_PATTERN[name](qf, (1, 1))


# --- tables: probabilities(qform, name, patterns) ---------------------------

TABLE_INPUTS = {
    "general": lambda r: [squeezed_thermal(v, s) for v, s in zip(r.uniform(1.1, 2.0, 10), r.uniform(0.2, 0.6, 10))],
    "thermal": lambda r: [thermal(v) for v in r.uniform(1.3, 3.2, 10)],
    "squeezed": lambda r: [squeezed(s) for s in r.uniform(0.3, 0.9, 10)],
}


def _table_case(name, m, seed=90):
    """A Q form the engine applies to, and a shuffled list of patterns of every
    weight up to min(m, 8) with some repeated."""
    rng = np.random.default_rng(seed + m)
    qf = build_qform(TABLE_INPUTS[name](rng)[:m], haar_random(m, seed + m))
    pats = [tuple(int(x) for x in rng.permutation([1] * n + [0] * (m - n))) for n in range(min(m, 8) + 1) for _ in range(3)]
    pats += pats[::4]
    return qf, [pats[i] for i in rng.permutation(len(pats))]


# the ways a caller may hold a table of patterns
CONTAINERS = {
    "tuples": lambda pats: [tuple(p) for p in pats],
    "int-array": lambda pats: np.array(pats, dtype=np.int64),
    "bool-array": lambda pats: np.array(pats, dtype=bool),
    "float-array": lambda pats: np.array(pats, dtype=float),
    "generator": lambda pats: (tuple(p) for p in pats),
}

# an entry written into two patterns of a valid table, and whether it reads as a click (1), no click (0) or is rejected (None)
ENTRIES = {
    "1.0": (1.0, 1),
    "True": (True, 1),
    "np.int64(1)": (np.int64(1), 1),
    "-0.0": (-0.0, 0),
    "2": (2, None),
    "-1": (-1, None),
    "1.9": (1.9, None),
    "0.5": (0.5, None),
    "1+0j": (1 + 0j, None),
    "nan": (math.nan, None),
    "'1'": ("1", None),
    "2**70": (2**70, None),
    "nested": ([1], None),
    "wrong-length": (None, None),  # every pattern one entry short
    "ragged": (None, None),  # the two patterns one entry long
}


def _edited_table(pats, entry):
    """pats with `entry` written into patterns 3 and 7, as lists."""
    rows = [list(p) for p in pats[:12]]
    value, _ = ENTRIES[entry]
    if entry == "wrong-length":
        return [row[:-1] for row in rows]
    for r, col in ((3, 2), (7, 0)):
        if entry == "ragged":
            rows[r].append(0)
        else:
            rows[r][col] = value
    return rows


def _per_pattern_rule(qf, name, patterns):
    """The table by the indexed one-pattern rule: `detected_modes` on each pattern
    in order (the first bad one, i, raising its error prefixed "patterns[i]: "),
    then the table of int tuples."""
    pats = list(patterns)
    for i, p in enumerate(pats):
        try:
            detected_modes(p, qf.m)
        except ValidationError as exc:
            raise ValidationError(f"patterns[{i}]: {exc}") from None
    return probabilities(qf, name, [tuple(int(x) for x in p) for p in pats])


def _outcome(fn):
    try:
        return fn().tobytes()
    except ValidationError as exc:
        return str(exc)


class TestProbabilities:
    @pytest.mark.parametrize("m", [6, 10])
    @pytest.mark.parametrize("name", sorted(TABLE_INPUTS))
    def test_equals_one_pattern_engines_bit_for_bit(self, name, m):
        qf, pats = _table_case(name, m)
        table = probabilities(qf, name, pats)
        assert table.dtype == np.float64 and table.shape == (len(pats),)
        assert table.tolist() == [ONE_PATTERN[name](qf, p) for p in pats]

    @pytest.mark.parametrize("name", sorted(TABLE_INPUTS))
    def test_chunked_table_is_the_same(self, name, monkeypatch):
        qf, pats = _table_case(name, 10)
        # one or two patterns per kernel call at weights 3 and 4
        monkeypatch.setattr(engines, "_CHUNK_TERMS", 1 << 7)
        chunked = probabilities(qf, name, pats).tolist()
        monkeypatch.undo()
        assert chunked == probabilities(qf, name, pats).tolist() == [ONE_PATTERN[name](qf, p) for p in pats]

    def test_empty_pattern_list(self):
        qf, _ = _table_case("thermal", 6)
        for name in applicable(qf):
            out = probabilities(qf, name, [])
            assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("at", [0, 3, -1])
    def test_bad_pattern_at_any_position(self, at):
        qf, pats = _table_case("thermal", 6)
        pats = pats[:8]
        pats[at] = (1, 2, 0, 0, 0, 0)
        for name in applicable(qf):
            with pytest.raises(ValidationError, match="0 or 1"):
                probabilities(qf, name, pats)

    def test_inapplicable_engine(self):
        qf, pats = _table_case("thermal", 6)
        with pytest.raises(ContractError, match="squeezed engine requires"):
            probabilities(qf, "squeezed", pats)
        with pytest.raises(KeyError):
            probabilities(qf, "coherent", pats)

    def test_group_above_the_cost_limit(self):
        from gbsim import CostLimitError

        qf = build_qform([vacuum()] * 12, validate_unitary(np.eye(12)))
        pats = [(0,) * 12, (1,) * 11 + (0,), (1,) + (0,) * 11]
        with pytest.raises(CostLimitError):
            probabilities(qf, "general", pats)

    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    def test_containers_equal_the_tuple_table(self, container):
        qf, pats = _table_case("thermal", 6)
        for name in applicable(qf):
            want = probabilities(qf, name, pats)
            assert probabilities(qf, name, CONTAINERS[container](pats)).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "container, entry",
        # a float array holds every entry but a sequence or a complex number
        [(c, e) for c in ("tuples", "generator", "float-array") for e in sorted(ENTRIES) if c != "float-array" or e not in ("nested", "ragged", "1+0j")],
    )
    def test_entries_checked_as_detected_modes(self, container, entry):
        qf, pats = _table_case("thermal", 6)
        rows = _edited_table(pats, entry)
        for name in applicable(qf):
            got = _outcome(lambda: probabilities(qf, name, CONTAINERS[container](rows)))
            assert got == _outcome(lambda: _per_pattern_rule(qf, name, CONTAINERS[container](rows)))
        if container == "tuples":
            reads_as = ENTRIES[entry][1]
            assert isinstance(got, bytes) == (reads_as is not None)
            if reads_as is not None:
                clean = [tuple(reads_as if x is ENTRIES[entry][0] else x for x in row) for row in rows]
                assert got == probabilities(qf, name, clean).tobytes()
            else:  # the first bad pattern is named
                assert str(tuple(rows[0 if entry == "wrong-length" else 3])) in got

    @pytest.mark.parametrize("container", ["tuples", "generator", "float-array"])
    def test_bad_row_is_named_by_its_index(self, container):
        qf, pats = _table_case("thermal", 6)
        rows = [list(p) for p in pats[:8]]
        rows[2][1] = 2
        for name in applicable(qf):
            with pytest.raises(ValidationError) as info:
                probabilities(qf, name, CONTAINERS[container](rows))
            assert str(info.value).startswith("patterns[2]: detection pattern entries must be 0 or 1")

    def test_generator_input(self):
        qf, _ = _table_case("squeezed", 6)
        pats = list(enumerate_patterns(6, 4))
        assert probabilities(qf, "squeezed", enumerate_patterns(6, 4)).tolist() == [prob_squeezed(qf, p) for p in pats]


class TestClamp:
    """Kernel values within roundoff below 0 read 0; beyond it they raise."""

    @staticmethod
    def _vacuum_general(monkeypatch, value):
        # all-vacuum inputs have K = 1, so the engine returns the kernel value itself
        monkeypatch.setattr(engines, "hafnian", lambda stack: np.full(len(stack), value, dtype=complex))
        return build_qform([vacuum()] * 3, validate_unitary(np.eye(3)))

    def test_tiny_negative_reads_zero(self, monkeypatch):
        qf = self._vacuum_general(monkeypatch, -1e-12)
        assert probabilities(qf, "general", [(1, 1, 0), (1, 0, 0)]).tolist() == [0.0, 0.0]
        assert prob_general(qf, (1, 1, 0)) == 0.0

    def test_negative_beyond_roundoff_raises(self, monkeypatch):
        from gbsim import NumericalIntegrityError

        qf = self._vacuum_general(monkeypatch, -1e-9)
        with pytest.raises(NumericalIntegrityError, match="general-engine probability is negative"):
            prob_general(qf, (1, 1, 0))

    def test_imaginary_residue_raises(self, monkeypatch):
        from gbsim import NumericalIntegrityError

        qf = self._vacuum_general(monkeypatch, 0.5 + 1e-6j)
        with pytest.raises(NumericalIntegrityError, match="imaginary residue"):
            probabilities(qf, "general", [(1, 1, 0)])

    def test_above_one_reads_one(self, monkeypatch):
        qf = self._vacuum_general(monkeypatch, 1.0 + 1e-12)
        assert prob_general(qf, (1, 1, 0)) == 1.0



# --- the total photon-number law: every engine above the Fock oracle's modes --

LAW_INPUTS = {
    "thermal": lambda r, m: [thermal(v) for v in r.uniform(1.3, 3.2, m)],
    "squeezed": lambda r, m: [squeezed(s) for s in r.uniform(0.3, 0.9, m)],
    "squeezed-thermal": lambda r, m: [squeezed_thermal(v, s) for v, s in zip(r.uniform(1.1, 2.0, m), r.uniform(0.2, 0.6, m))],
    "mixed": lambda r, m: [(thermal(1 + 2 * x), squeezed(x), vacuum())[i % 3] for i, x in enumerate(r.uniform(0.3, 0.9, m))],
}


@pytest.mark.parametrize("m", [6, 9, 12])
@pytest.mark.parametrize("kind", LAW_INPUTS)
def test_vacuum_and_one_photon_match_the_law(kind, m):
    # a passive network conserves the total count, so p(vacuum) and the sum over
    # the M one-photon patterns are the law's n = 0 and n = 1 terms at any M
    states = LAW_INPUTS[kind](np.random.default_rng(300 + m), m)
    qf = build_qform(states, haar_random(m, 300 + m))
    law = photon_number_law([v for s in states for v in (s.v_x, s.v_p)], 1)
    names = applicable(qf)
    assert names == ["general", kind] if kind in ("thermal", "squeezed") else names == ["general"]
    for name in names:
        p = probabilities(qf, name, np.eye(m + 1, m, -1, dtype=bool))  # vacuum, then e_1..e_M
        assert abs(p[0] - law[0]) <= 1e-13 * law[0], name
        if kind == "squeezed":  # odd counts vanish; the law reads 0 up to its own roundoff
            assert abs(p[1:].sum() - law[1]) <= 1e-14, name
        else:
            assert abs(p[1:].sum() - law[1]) <= 1e-13 * law[1], name


# --- edge inputs: strong squeezing ------------------------------------------

STRONG_SQUEEZING = {
    "two-squeezed": lambda r: [squeezed(r)] * 2 + [vacuum()] * 2,  # K = sech(r)^2, 4.5e-7 at r = 8
    "all-squeezed": lambda r: [squeezed(r)] * 4,
    "spread": lambda r: [squeezed(r * x) for x in (0.25, 0.5, 0.75, 1.0)],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("r", [2.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("kind", STRONG_SQUEEZING)
def test_general_equals_squeezed_under_strong_squeezing(kind, r, seed):
    # Every pattern at M = 4.  An even pattern's two values agree within 1e-15 of
    # K haf(|B|), the sum of its pairing terms' magnitudes and so the scale of the
    # hafnians' roundoff: 1e-15 relative where the terms do not cancel.  Where they
    # do, relative agreement is lost: all-squeezed at r = 8, seed 2 has p(1,1,1,1)
    # = 5.5e-17 with the engines 5.7e-15 apart, nearly all of it the general
    # engine's own roundoff against a 50-digit evaluation of the same Q form.
    qf = build_qform(STRONG_SQUEEZING[kind](r), haar_random(4, seed))
    patterns = np.array(list(enumerate_patterns(4, 4)))
    general, pure = (probabilities(qf, name, patterns) for name in ("general", "squeezed"))
    for pattern, g, s in zip(patterns, general, pure):
        if pattern.sum() % 2:  # exactly 0 on the squeezed route, roundoff on the general one
            assert s == 0.0 and g <= 1e-15 * qf.k
        else:
            terms = np.abs(engines._pairing_matrices(qf, np.flatnonzero(pattern)[None]))
            assert abs(g - s) <= 1e-15 * qf.k * hafnian(terms)[0].real, pattern
