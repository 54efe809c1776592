"""U(1)-invariant point oscillator models.

The oscillator sits at x = 0 and acts on the field through a force
F(psi) = alpha(|psi|^2) psi derived from a real potential U(psi) = u(|psi|^2).
Two kinds are supported:

* polynomial: u(s) = sum_n u_n s^n with u_N > 0 and N >= 2 (strictly
  nonlinear by construction, since alpha is then a nonconstant polynomial);
* linear: F(psi) = a psi, i.e. U(psi) = -a |psi|^2 / 2.

The linear kind is well posed only for a < 2m; larger couplings admit
secularly growing modes, so construction merely warns and downstream checks
(`check_bound_below`) report the failure.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np


class ModelKind(enum.Enum):
    POLYNOMIAL = "polynomial"
    LINEAR = "linear"


@dataclass(frozen=True)
class OscillatorModel:
    """Field mass plus the oscillator potential at the coupling point.

    ``coefficients`` are the u_0..u_N of the polynomial kind (u_0 shifts the
    energy only and never enters the force; it is kept for bookkeeping).
    For the linear kind ``linear_a`` holds the coupling a and ``coefficients``
    is empty.
    """

    mass: float
    kind: ModelKind
    coefficients: tuple[float, ...] = field(default=())
    linear_a: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.kind is ModelKind.POLYNOMIAL:
            u = self.coefficients
            if len(u) < 3:
                raise ValueError("polynomial potential needs degree N >= 2 (u_0..u_N)")
            if not all(np.isfinite(c) for c in u):
                raise ValueError("non-finite potential coefficient")
            if u[-1] <= 0:
                raise ValueError(f"leading coefficient u_N must be positive, got {u[-1]}")
        else:
            if not np.isfinite(self.linear_a):
                raise ValueError("non-finite linear coupling")
            if self.linear_a >= 2 * self.mass:
                warnings.warn(
                    f"linear coupling a={self.linear_a} >= 2m={2 * self.mass}: "
                    "outside the well-posedness window, solutions may grow",
                    stacklevel=2,
                )

    @classmethod
    def polynomial(cls, mass: float, coefficients) -> "OscillatorModel":
        return cls(mass=float(mass), kind=ModelKind.POLYNOMIAL,
                   coefficients=tuple(float(c) for c in coefficients))

    @classmethod
    def linear(cls, mass: float, a: float) -> "OscillatorModel":
        return cls(mass=float(mass), kind=ModelKind.LINEAR, linear_a=float(a))


def potential(model: OscillatorModel, psi: complex) -> float:
    """U(psi); for the linear kind -a |psi|^2 / 2."""
    s = float(np.real(psi * np.conj(psi)))
    if model.kind is ModelKind.LINEAR:
        return -0.5 * model.linear_a * s
    acc = 0.0
    for u_n in reversed(model.coefficients):
        acc = acc * s + u_n
    return acc


def alpha(model: OscillatorModel, s) -> float | np.ndarray:
    """Coefficient function alpha(s) = -sum_{n>=1} 2 n u_n s^{n-1}, s = |psi|^2.

    Constant (= a) for the linear kind.  Accepts scalars or arrays.
    """
    s = np.asarray(s, dtype=float)
    if model.kind is ModelKind.LINEAR:
        out = np.full(s.shape, model.linear_a)
        return float(out) if out.ndim == 0 else out
    u = model.coefficients
    acc = np.zeros(s.shape)
    for n in range(len(u) - 1, 0, -1):
        acc = acc * s - 2.0 * n * u[n]
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
    the linear kind.
    """
    if model.kind is ModelKind.LINEAR:
        return abs(model.linear_a)
    s = r * r
    # c_k = -2 (k+1) u_(k+1)
    return float(sum(2.0 * (k + 1) * abs(u) * (2 * k + 1) * s ** k
                     for k, u in enumerate(model.coefficients[1:])))


def _poly_min_nonneg(coeffs: tuple[float, ...]) -> float:
    """Global minimum of p(s) = sum_n c_n s^n over s >= 0.

    Leading coefficient must be positive.  Critical points are located by
    exact root isolation of p' (numpy companion roots suffice for the real
    polynomial; only real nonnegative roots are kept).
    """
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    candidates = [0.0]
    roots = dp.roots()
    for r in roots:
        if abs(r.imag) < 1e-10 and r.real > 0:
            candidates.append(float(r.real))
    return min(float(p(s)) for s in candidates)


def check_bound_below(model: OscillatorModel) -> tuple[float, float] | None:
    """Constants (A, B) with U(psi) >= A - B |psi|^2 and 0 <= B < m, or None.

    Polynomial models (u_N > 0, N >= 2) always admit B = 0 with A the global
    minimum of u(s) over s >= 0.  Linear models succeed exactly when a < 2m:
    B = a/2 for a > 0 (so B < m) and B = 0 otherwise, with A = 0.
    None signals the model sits outside the well-posedness hypotheses.
    """
    if model.kind is ModelKind.POLYNOMIAL:
        return (_poly_min_nonneg(model.coefficients), 0.0)
    a = model.linear_a
    if a >= 2 * model.mass:
        return None
    return (0.0, 0.5 * a) if a > 0 else (0.0, 0.0)
