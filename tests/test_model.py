import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import OscillatorModel, alpha, check_bound_below, force, potential
from kgpoint.initial import uniform_stream
from kgpoint.model import alpha_roots, force_lipschitz


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


class TestAlphaRoots:
    def test_quartic_keeps_the_positive_real_roots(self):
        # alpha(s) = 1 - s^3 (u = (0, -1/2, 0, 0, 1/8)) has one real root s = 1
        # and a complex pair; alpha(s) = -7 at s = 2
        model = OscillatorModel.polynomial(1.0, (0.0, -0.5, 0.0, 0.0, 0.125))
        assert alpha_roots(model, 0.0).tolist() == [1.0]
        assert alpha_roots(model, -7.0).tolist() == [2.0]
        assert alpha_roots(model, 2.0).size == 0

    def test_roots_past_the_float_range_are_dropped(self):
        # alpha(s) = 2 - 4e-320 s: the one root, (2 - level) / 4e-320, is past
        # the float range; no root, and no overflow warning
        model = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1e-320))
        assert alpha_roots(model, 2.0 * np.sqrt(0.75)).size == 0

    def test_ascending_and_on_alpha(self):
        # alpha(s) = 1 + 12 s - 6 s^2 = 3 at s = 1 -/+ sqrt(2/3)
        model = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
        roots = alpha_roots(model, 3.0)
        assert roots == pytest.approx([1 - np.sqrt(2 / 3), 1 + np.sqrt(2 / 3)], rel=1e-15)
        assert alpha(model, roots) == pytest.approx([3.0, 3.0], rel=1e-14)

    def test_double_root_once(self):
        # alpha(s) = 1 + 12 s - 6 s^2 peaks at alpha(1) = 7, where the companion
        # matrix returns one value twice; a Newton step of alpha' ~ 1e-15 would
        # land anywhere, and any warning fails the suite
        model = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
        assert alpha_roots(model, 7.0) == pytest.approx([1.0], rel=1e-15)

    @pytest.mark.parametrize("u3", [0.5, 1.0, 2.0])
    def test_levels_touching_the_maximum(self, u3):
        # at alpha's maximum and one ulp either side the root is double, and
        # its companion values are 1e-8 apart; unguarded Newton steps threw 41
        # of these 702 roots far from the vertex
        for u1 in np.linspace(-3, 3, 13):
            for u2 in np.linspace(-3, 3, 13):
                model = OscillatorModel.polynomial(1.0, (0.0, u1, u2, u3))
                c0, c1, c2 = model.alpha_coefficients
                vertex = -c1 / (2 * c2)
                if vertex <= 0:
                    continue
                peak = c0 - c1 * c1 / (4 * c2)
                for level in (np.nextafter(peak, -np.inf), peak, np.nextafter(peak, np.inf)):
                    roots = alpha_roots(model, float(level))
                    assert np.all(np.abs(roots - vertex) <= 1e-5 * vertex), (u1, u2, level)

    def test_same_values_and_order_as_unique(self):
        # the polished roots deduplicated by np.unique, the way the library
        # did before it sorted and compared neighbours (np.unique imports
        # numpy.ma on its first call), bit for bit on the grid above and on
        # levels with two, one and no roots
        def by_unique(model, level):
            c = np.array(model.alpha_coefficients)
            c[0] -= level
            roots = npoly.polyroots(c)
            s = roots.real[(np.abs(roots.imag) < 1e-10) & (roots.real > 0)]
            dc, res = npoly.polyder(c), npoly.polyval(s, c)
            for _ in range(3):
                slope = npoly.polyval(s, dc)
                step = s - np.divide(res, slope, out=np.zeros_like(s), where=slope != 0)
                step_res = npoly.polyval(step, c)
                better = np.abs(step_res) < np.abs(res)
                s, res = np.where(better, step, s), np.where(better, step_res, res)
            return np.unique(s[s > 0])

        for u1 in np.linspace(-3, 3, 13):
            for u2 in np.linspace(-3, 3, 13):
                model = OscillatorModel.polynomial(1.0, (0.0, u1, u2, 1.0))
                c0, c1, c2 = model.alpha_coefficients
                peak = c0 - c1 * c1 / (4 * c2)
                for level in (np.nextafter(peak, -np.inf), peak, np.nextafter(peak, np.inf),
                              peak - 1.0, 0.0, c0):
                    got, want = alpha_roots(model, float(level)), by_unique(model, float(level))
                    assert got.tobytes() == want.tobytes(), (u1, u2, level)

    def test_linear_kind_has_none(self, linear_model):
        assert alpha_roots(linear_model, 1.0).size == 0


class TestConstruction:
    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            OscillatorModel.polynomial(1.0, (0.0, 1.0))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            OscillatorModel.polynomial(1.0, (0.0, 1.0, -1.0))

    @pytest.mark.parametrize("coefficients", [(0.0,), (0.0, np.nan, 1.0), (0.0, -1.0, np.inf)],
                             ids=["degree_zero", "nan", "inf"])
    def test_rejects_degree_zero_or_non_finite(self, coefficients):
        with pytest.raises(ValueError, match="finite coefficients u_0..u_N with N >= 1"):
            OscillatorModel(1.0, coefficients)

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
