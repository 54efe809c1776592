"""U(1)-invariant point oscillator models.

The oscillator sits at x = 0 and acts on the field through a force
F(psi) = alpha(|psi|^2) psi derived from a real potential U(psi) = u(|psi|^2).
Two kinds are supported:

* polynomial: u(s) = sum_n u_n s^n with u_N > 0 and N >= 2 (strictly
  nonlinear by construction, since alpha is then a nonconstant polynomial);
* linear: F(psi) = a psi, i.e. u(s) = -a s / 2, the degree-one potential
  with coefficients (0, -a/2).

The linear kind is well posed only for a < 2m; larger couplings admit
secularly growing modes, so `OscillatorModel.linear` merely warns and
downstream checks (`check_bound_below`) report the failure; the config and
the CLI build the kind through `well_posed_linear`, which refuses them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly


@dataclass(frozen=True)
class OscillatorModel:
    """Field mass plus the oscillator potential at the coupling point.

    ``coefficients`` are the u_0..u_N of u(s) (u_0 shifts the energy only
    and never enters the force; it is kept for bookkeeping): N >= 2 for the
    polynomial kind, N = 1 with u_1 = -a/2 for the linear kind.
    """

    mass: float
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        u = self.coefficients
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if len(u) < 2 or not np.all(np.isfinite(u)):
            raise ValueError("potential needs finite coefficients u_0..u_N with N >= 1")
        if not self.is_linear and u[-1] <= 0:
            raise ValueError(f"leading coefficient u_N must be positive, got {u[-1]}")

    @property
    def is_linear(self) -> bool:
        """The degree-one potential, F = a psi."""
        return len(self.coefficients) == 2

    @property
    def linear_a(self) -> float:
        """The coupling a of the linear kind, -2 u_1."""
        return -2.0 * self.coefficients[1]

    @property
    def alpha_coefficients(self) -> tuple[float, ...]:
        """c_0..c_(N-1) of alpha(s) = sum_k c_k s^k, c_k = -2 (k+1) u_(k+1)."""
        return tuple(-2.0 * n * u for n, u in enumerate(self.coefficients) if n >= 1)

    @classmethod
    def polynomial(cls, mass: float, coefficients) -> "OscillatorModel":
        u = tuple(float(c) for c in coefficients)
        if len(u) < 3:
            raise ValueError("polynomial potential needs degree N >= 2 (u_0..u_N)")
        return cls(float(mass), u)

    @classmethod
    def linear(cls, mass: float, a: float) -> "OscillatorModel":
        """F = a psi; a >= 2m leaves the well-posedness window and warns at
        the caller's line."""
        model = cls(float(mass), (0.0, -0.5 * float(a)))
        if model.linear_a >= 2 * model.mass:
            warnings.warn(
                f"linear coupling a={model.linear_a} >= 2m={2 * model.mass}: "
                "outside the well-posedness window, solutions may grow",
                stacklevel=2,
            )
        return model


def well_posed_linear(mass: float, a: float) -> OscillatorModel:
    """`OscillatorModel.linear`, ValueError outside the well-posedness window a < 2m."""
    if mass > 0 and not a < 2 * mass:
        raise ValueError(f"linear coupling a={a} outside the well-posedness window a < 2m")
    return OscillatorModel.linear(mass, a)


def potential(model: OscillatorModel, psi: complex) -> float:
    """U(psi) = u(|psi|^2); inf, without a warning, where that overflows."""
    s = float(np.real(psi * np.conj(psi)))
    with np.errstate(over="ignore"):
        return float(npoly.polyval(s, model.coefficients))


def alpha(model: OscillatorModel, s) -> float | np.ndarray:
    """Coefficient function alpha(s) = -sum_{n>=1} 2 n u_n s^{n-1}, s = |psi|^2.

    Constant (= a) for the linear kind.  Accepts scalars or arrays.
    """
    acc = npoly.polyval(np.asarray(s, dtype=float), model.alpha_coefficients)
    return float(acc) if acc.ndim == 0 else acc


def force(model: OscillatorModel, psi) -> complex | np.ndarray:
    """F(psi) = alpha(|psi|^2) psi = -grad U; gauge equivariant by construction."""
    psi = np.asarray(psi, dtype=complex)
    out = alpha(model, np.real(psi * np.conj(psi))) * psi
    return complex(out) if out.ndim == 0 else out


def force_lipschitz(model: OscillatorModel, r: float) -> float:
    """Lipschitz bound of F on the disc |psi| <= r.

    The real Jacobian of F is the symmetric alpha(s) I + 2 alpha'(s) psi psi^T
    (s = |psi|^2), with eigenvalues alpha(s) and alpha(s) + 2 s alpha'(s).  For
    alpha(s) = sum_k c_k s^k both are bounded by sum_k |c_k| (2k+1) r^(2k),
    which grows with r, so no maximisation over the disc is needed.  |a| for
    the linear kind; inf or nan, with no warning, past the float range.
    """
    s = np.float64(r) * r
    with np.errstate(over="ignore", invalid="ignore"):
        return float(sum(abs(c) * (2 * k + 1) * s ** k
                         for k, c in enumerate(model.alpha_coefficients)))


def alpha_roots(model: OscillatorModel, level: float) -> np.ndarray:
    """The s > 0 with alpha(s) = level, ascending, each once; none for the
    linear kind, whose alpha is constant.

    The companion eigenvalues of alpha(s) - level (backward stable) with
    |imag| < 1e-10 and positive real part, polished by three Newton steps on
    alpha with the level taken off its constant term, which keeps the digits
    alpha(s) - level would cancel.  A step is kept only where it shrinks the
    residual: at a double root the slope is as small as the residual's
    rounding, and a plain step lands anywhere.  Roots past the float range
    are dropped without a warning.
    """
    c = np.array(model.alpha_coefficients)
    c[0] -= level
    with np.errstate(over="ignore", invalid="ignore"):
        roots = npoly.polyroots(c)
        s = roots.real[(np.abs(roots.imag) < 1e-10) & (roots.real > 0) & np.isfinite(roots)]
        dc = npoly.polyder(c)
        res = npoly.polyval(s, c)
        for _ in range(3):
            slope = npoly.polyval(s, dc)
            step = s - np.divide(res, slope, out=np.zeros_like(s), where=slope != 0)
            step_res = npoly.polyval(step, c)
            better = np.abs(step_res) < np.abs(res)
            s, res = np.where(better, step, s), np.where(better, step_res, res)
    # each value once, ascending, as np.unique would; its first call imports numpy.ma
    s = np.sort(s[s > 0])
    return s[np.diff(s, prepend=0.0) != 0]


def check_bound_below(model: OscillatorModel) -> tuple[float, float] | None:
    """Constants (A, B) with U(psi) >= A - B |psi|^2 and 0 <= B < m, or None.

    Polynomial models (u_N > 0, N >= 2) always admit B = 0 with A the global
    minimum of u(s) over s >= 0, taken at s = 0 or at a zero of
    u'(s) = -alpha(s)/2.  Linear models succeed exactly when a < 2m:
    B = a/2 for a > 0 (so B < m) and B = 0 otherwise, with A = 0.
    None signals the model sits outside the well-posedness hypotheses.
    """
    if not model.is_linear:
        candidates = np.append(alpha_roots(model, 0.0), 0.0)
        return (float(npoly.polyval(candidates, model.coefficients).min()), 0.0)
    a = model.linear_a
    if a >= 2 * model.mass:
        return None
    return (0.0, 0.5 * a) if a > 0 else (0.0, 0.0)
