import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbsim import (
    GaussianModeState,
    ValidationError,
    derive_q_params,
    is_classical,
    mean_photon_number,
    squeezed,
    squeezed_thermal,
    state_from_descriptor,
    thermal,
    vacuum,
)
from gbsim.errors import real


def valid_states():
    """Valid states via the canonical constructors."""
    base = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)
    r = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
    return st.one_of(
        st.just(vacuum()),
        base.map(thermal),
        r.map(squeezed),
        st.tuples(base, r).map(lambda t: squeezed_thermal(*t)),
    )


class TestDeriveQParams:
    def test_vacuum(self):
        p = derive_q_params(vacuum())
        assert p.lam == 0.0
        assert p.mu == 1.0

    def test_thermal_v3(self):
        p = derive_q_params(thermal(3.0))
        assert p.lam == 0.0
        assert p.mu == pytest.approx(0.5, abs=0)

    def test_squeezed_half(self):
        p = derive_q_params(squeezed(0.5))
        assert p.lam == pytest.approx(math.tanh(0.5) / 2, abs=1e-15)
        assert p.mu == pytest.approx(1.0, abs=1e-14)

    @given(valid_states())
    def test_normalizable(self, s):
        p = derive_q_params(s)
        assert p.mu**2 - 4 * p.lam**2 > 0

    @given(valid_states())
    def test_norm_is_the_q_normalization(self, s):
        # norm = sqrt(mu^2 - 4 lam^2) = sqrt((mu - 2 lam)(mu + 2 lam)), in (0, 1]
        p = derive_q_params(s)
        assert 0.0 < p.norm <= 1.0
        assert p.norm == pytest.approx(math.sqrt(2.0 / (s.v_x + 1) * (2.0 / (s.v_p + 1))), rel=2e-15)
        assert p.norm == pytest.approx(math.sqrt(p.mu**2 - 4 * p.lam**2), rel=1e-6)

    @given(valid_states())
    def test_lam_zero_iff_symmetric(self, s):
        # lam = (v_x - v_p) / (2 (v_x + 1)(v_p + 1)): zero iff no squeezing
        p = derive_q_params(s)
        if s.v_x == s.v_p:
            assert p.lam == 0.0
        else:
            expect = (s.v_x - s.v_p) / (2 * (s.v_x + 1) * (s.v_p + 1))
            # abs floor: the two-reciprocal form cancels at the ulp scale
            assert p.lam == pytest.approx(expect, rel=1e-9, abs=2e-16)
            assert p.lam >= 0.0

    @given(valid_states())
    def test_mu_one_iff_pure(self, s):
        p = derive_q_params(s)
        assert (abs(p.mu - 1.0) < 1e-12) == (abs(s.v_x * s.v_p - 1.0) < 1e-9)


class TestValidation:
    @pytest.mark.parametrize("vx,vp", [(0.5, 0.5), (2.0, 0.1), (3.0, -1.0), (0.9, 0.9)])
    def test_unphysical_rejected(self, vx, vp):
        with pytest.raises(ValidationError):
            GaussianModeState(vx, vp)

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            GaussianModeState(1.0, 3.0)

    def test_thermal_below_vacuum_rejected(self):
        with pytest.raises(ValidationError):
            thermal(0.8)

    def test_squeezed_thermal_below_vacuum_rejected(self):
        with pytest.raises(ValidationError, match="base variance"):
            squeezed_thermal(0.9, 0.3)

    def test_squeezed_sign_canonicalized(self):
        assert squeezed(-0.7) == squeezed(0.7)

    @pytest.mark.parametrize("make, args", [(squeezed, (1000,)), (squeezed, (-1000,)), (squeezed_thermal, (2, 400))])
    def test_overflowing_squeezing_rejected(self, make, args):
        # e^(2r) overflows a float: a ValidationError, not a bare OverflowError
        with pytest.raises(ValidationError, match="positive and finite"):
            make(*args)

    @pytest.mark.parametrize("r", [0.9, 8.0])
    def test_strong_squeezing_still_built(self, r):
        s = squeezed(r)
        assert s.v_x == math.exp(2 * r) and s.v_p == math.exp(-2 * r)


class TestClassicality:
    def test_thermal_classical(self):
        assert is_classical(thermal(3.0))

    def test_squeezed_nonclassical(self):
        assert not is_classical(squeezed(0.5))

    def test_squeezed_thermal_with_wide_vp(self):
        # v_x = 4, v_p = 1.5 survives the squeezing
        assert is_classical(GaussianModeState(4.0, 1.5))

    def test_vacuum_classical(self):
        assert is_classical(vacuum())


class TestMeanPhotonNumber:
    def test_vacuum(self):
        assert mean_photon_number(vacuum()) == 0.0

    def test_thermal_matches_geometric_mean(self):
        # geometric law with nbar = (V-1)/2
        assert mean_photon_number(thermal(3.0)) == pytest.approx(1.0, abs=0)

    def test_squeezed_matches_sinh(self):
        assert mean_photon_number(squeezed(0.5)) == pytest.approx(math.sinh(0.5) ** 2, rel=1e-14)


class TestDescriptors:
    @pytest.mark.parametrize(
        "desc,expected",
        [
            ({"type": "vacuum"}, vacuum()),
            ({"type": "thermal", "v": 3.0}, thermal(3.0)),
            ({"type": "squeezed", "r": 0.5}, squeezed(0.5)),
            ({"type": "squeezed_thermal", "v": 1.2, "r": 0.3}, squeezed_thermal(1.2, 0.3)),
        ],
    )
    def test_round_trip(self, desc, expected):
        assert state_from_descriptor(desc) == expected

    @pytest.mark.parametrize("desc", [{"type": "laser"}, {"type": "thermal"}, {}, "vacuum"])
    def test_bad_descriptor(self, desc):
        with pytest.raises(ValidationError):
            state_from_descriptor(desc)

    @pytest.mark.parametrize(
        "desc, match",
        [
            ({"type": "thermal", "v": 2.0, "r": 0.5}, "unexpected field 'r'"),
            ({"type": "vacuum", "v": 1.0}, "unexpected field 'v'"),
            ({"type": "squeezed", "r": 0.5, "V": 2.0}, "unexpected field 'V'"),
            ({"type": "squeezed_thermal", "v": 2.0}, "missing field 'r'"),
            ({"type": ["thermal"], "v": 2.0}, "unknown state type"),
            ({"type": {"t": 1}}, "unknown state type"),
            ({"type": "thermal", "v": True}, "thermal variance must be a number, got True"),
            ({"type": "thermal", "v": "3"}, "thermal variance must be a number, got '3'"),
            ({"type": "squeezed", "r": None}, "squeezing r must be a number, got None"),
        ],
    )
    def test_record_holds_exactly_its_fields(self, desc, match):
        # an extra field would otherwise be dropped, and a bool or string read as a number
        with pytest.raises(ValidationError, match=match):
            state_from_descriptor(desc)


class TestRealRule:
    """Every variance and squeezing a caller passes goes through `errors.real`."""

    @pytest.mark.parametrize("value", [3, 3.0, np.float64(3.0), np.int64(3), np.float32(3.0), Fraction(3)])
    def test_reals_accepted(self, value):
        out = real(value, "x")
        assert type(out) is float and out == 3.0

    @pytest.mark.parametrize("value", [True, np.True_, "3", None, 3j, np.array(3.0), Decimal("3"), [3.0], 10**400])
    def test_others_refused(self, value):
        with pytest.raises(ValidationError, match=r"^x must be a number, got "):
            real(value, "x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_range_is_left_to_the_argument(self, value):
        assert repr(real(value, "x")) == repr(value)

    @pytest.mark.parametrize(
        "make, what",
        [
            (lambda x: GaussianModeState(x, 2.0), "v_x"),
            (lambda x: GaussianModeState(2.0, x), "v_p"),
            (thermal, "thermal variance"),
            (squeezed, "squeezing r"),
            (lambda x: squeezed_thermal(x, 0.3), "squeezed-thermal base variance"),
            (lambda x: squeezed_thermal(1.2, x), "squeezing r"),
        ],
    )
    @pytest.mark.parametrize("value", [True, "3", None])
    def test_constructors_refuse_non_numbers(self, make, what, value):
        with pytest.raises(ValidationError, match=f"^{what} must be a number, got {value!r}$"):
            make(value)

    @pytest.mark.parametrize("v, r", [(3, 0), (np.int64(3), np.float64(0.0)), (np.float64(3.0), np.int64(0))])
    def test_ints_and_numpy_reals_are_bit_identical(self, v, r):
        assert GaussianModeState(v, 1) == GaussianModeState(3.0, 1.0)
        assert thermal(v) == thermal(3.0)
        assert squeezed(r) == squeezed(0.0) and squeezed(np.float64(0.7)) == squeezed(0.7)
        assert squeezed_thermal(v, r) == squeezed_thermal(3.0, 0.0)
        assert squeezed_thermal(v, np.float64(0.3)) == squeezed_thermal(3.0, 0.3)
        assert all(type(x) is float for s in (thermal(v), squeezed_thermal(v, r)) for x in (s.v_x, s.v_p))

    @pytest.mark.parametrize("make, args", [(thermal, (0,)), (squeezed_thermal, (0, 0.3))])
    def test_out_of_range_messages_print_the_value_as_given(self, make, args):
        with pytest.raises(ValidationError, match="must be >= 1, got 0$"):
            make(*args)
