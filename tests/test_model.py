import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import OscillatorModel, alpha, check_bound_below, force, potential
from kgpoint.initial import uniform_stream
from kgpoint.model import force_lipschitz


def poly_potential_oracle(coeffs, psi):
    """Direct evaluation of sum u_n |psi|^(2n), independent of the Horner path."""
    s = abs(psi) ** 2
    return sum(u * s ** n for n, u in enumerate(coeffs))


class TestPotential:
    def test_zero_point(self, cubic_model):
        assert potential(cubic_model, 0.0) == 0.0

    def test_unit_point_matches_oracle(self, cubic_model):
        assert potential(cubic_model, 1.0) == pytest.approx(
            poly_potential_oracle((0, -1, 1), 1.0), abs=1e-15)
        assert potential(cubic_model, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_linear_kind(self):
        lin = OscillatorModel.linear(1.0, 1.0)
        assert potential(lin, 2.0) == pytest.approx(-2.0)

    def test_random_points_match_oracle(self, cubic_model):
        u = uniform_stream(11, 0, 40)
        for k in range(20):
            psi = complex(2 * u[2 * k] - 1, 2 * u[2 * k + 1] - 1)
            assert potential(cubic_model, psi) == pytest.approx(
                poly_potential_oracle((0, -1, 1), psi), rel=1e-13, abs=1e-14)


class TestForce:
    def test_vanishes_at_zero(self, cubic_model, linear_model):
        assert force(cubic_model, 0.0) == 0.0
        assert force(linear_model, 0.0) == 0.0

    def test_unit_point(self, cubic_model):
        # alpha(1) = -2 u_1 - 4 u_2 = 2 - 4 = -2
        assert force(cubic_model, 1.0) == pytest.approx(-2.0)

    def test_gauge_example(self, cubic_model):
        psi = 0.7 + 0.2j
        th = np.pi / 3
        lhs = force(cubic_model, np.exp(1j * th) * psi)
        rhs = np.exp(1j * th) * force(cubic_model, psi)
        assert abs(lhs - rhs) < 1e-14

    def test_gauge_equivariance_bulk(self, cubic_model):
        u = uniform_stream(5, 0, 3000)
        psi = (2 * u[0::3] - 1) + 1j * (2 * u[1::3] - 1)
        th = 2 * np.pi * u[2::3]
        lhs = force(cubic_model, np.exp(1j * th) * psi)
        rhs = np.exp(1j * th) * force(cubic_model, psi)
        # relative to the force scale, floored by |psi| where F crosses zero
        # (alpha vanishes at s = 1/2, where no implementation has a bounded
        # force-relative error)
        denom = np.maximum(np.abs(rhs), np.abs(psi))
        assert np.max(np.abs(lhs - rhs) / np.maximum(denom, 1e-30)) < 1e-12

    def test_gradient_consistency(self, cubic_model, linear_model):
        # F = -grad U against central differences in (Re, Im)
        step = 1e-5
        u = uniform_stream(9, 0, 24)
        for model in (cubic_model, linear_model):
            for k in range(12):
                psi = complex(2 * u[2 * k] - 1, 2 * u[2 * k + 1] - 1)
                gx = (potential(model, psi + step) - potential(model, psi - step)) / (2 * step)
                gy = (potential(model, psi + 1j * step) - potential(model, psi - 1j * step)) / (2 * step)
                f = force(model, psi)
                assert abs(f - (-gx - 1j * gy)) < 1e-6 * max(1.0, abs(f))

    def test_alpha_force_consistency(self, cubic_model):
        u = uniform_stream(13, 0, 40)
        psi = (2 * u[0::2] - 1) + 1j * (2 * u[1::2] - 1)
        gap = np.abs(force(cubic_model, psi) - alpha(cubic_model, np.abs(psi) ** 2) * psi)
        assert gap.max() < 1e-13


class TestAlpha:
    def test_values(self, cubic_model):
        assert alpha(cubic_model, 0.0) == pytest.approx(2.0)
        assert alpha(cubic_model, 0.25) == pytest.approx(1.0)

    def test_linear_constant(self):
        # a = 3 >= 2m warns at construction, so silence it for this value check
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = OscillatorModel.linear(1.0, 3.0)
        assert alpha(m, 10.0) == pytest.approx(3.0)
        assert alpha(m, 0.0) == 3.0


class TestLipschitz:
    @pytest.mark.parametrize("model", [
        OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0)),
        OscillatorModel.polynomial(1.0, (0.0, -1.0, 0.5, 0.25)),
        OscillatorModel.linear(1.0, 1.0),
    ], ids=["cubic", "quintic", "linear"])
    def test_bound_holds_in_disc(self, model):
        r = 1.5
        u = uniform_stream(17, 0, 2000)
        z1 = r * np.sqrt(u[0::4]) * np.exp(2j * np.pi * u[1::4])
        z2 = r * np.sqrt(u[2::4]) * np.exp(2j * np.pi * u[3::4])
        # far pairs, and radial and tangential near pairs, where |F(a) - F(b)|
        # / |a - b| approaches the two eigenvalues of the Jacobian
        a = np.concatenate([z1, z1, z1])
        b = np.concatenate([z2, z1 * (1.0 - 1e-7), z1 * np.exp(1e-7j)])
        ratio = np.abs(force(model, a) - force(model, b)) / np.abs(a - b)
        assert np.max(ratio) <= force_lipschitz(model, r) * (1.0 + 1e-6)


class TestBoundBelow:
    def test_cubic(self, cubic_model):
        A, B = check_bound_below(cubic_model)
        assert B == 0.0
        assert A == pytest.approx(-0.25, abs=1e-12)

    def test_linear_inside_window(self):
        res = check_bound_below(OscillatorModel.linear(1.0, 1.9))
        assert res is not None
        A, B = res
        assert A == 0.0 and B == pytest.approx(0.95)
        assert B < 1.0

    def test_linear_at_window_edge_fails(self):
        with pytest.warns(UserWarning):
            m = OscillatorModel.linear(1.0, 2.0)
        assert check_bound_below(m) is None

    def test_bound_actually_holds(self, cubic_model):
        A, B = check_bound_below(cubic_model)
        s = np.linspace(0, 20, 5001)
        U = -s + s ** 2
        assert np.all(U >= A - B * s - 1e-12)


class TestConstruction:
    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            OscillatorModel.polynomial(1.0, (0.0, 1.0))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            OscillatorModel.polynomial(1.0, (0.0, 1.0, -1.0))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            OscillatorModel.polynomial(0.0, (0.0, -1.0, 1.0))

    def test_linear_outside_window_warns(self):
        # reported at the caller's line, not in the dataclass's __init__
        with pytest.warns(UserWarning) as rec:
            OscillatorModel.linear(1.0, 2.5)
        assert rec[0].filename == __file__


@given(re=st.floats(-2, 2), im=st.floats(-2, 2),
       th=st.floats(0, 2 * np.pi),
       u1=st.floats(-3, 3), u2=st.floats(0.1, 3))
@settings(max_examples=200, deadline=None)
def test_gauge_equivariance_property(re, im, th, u1, u2):
    model = OscillatorModel.polynomial(1.0, (0.0, u1, u2))
    psi = complex(re, im)
    lhs = force(model, np.exp(1j * th) * psi)
    rhs = np.exp(1j * th) * force(model, psi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs), abs(psi) ** 5)
