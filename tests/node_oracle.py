"""The complex fixed-point node, kept as the test oracle of `kgpoint.volterra._node`.

It iterates z <- b + (dt/4) F(z) on the complex trace value with a complex
scalar force, where `_node` iterates the real multiplier mu of z = b / mu.
Both stop once |dz| <= _RESIDUAL_TOL max(1, |z|).
"""

from __future__ import annotations

from kgpoint.model import OscillatorModel
from kgpoint.volterra import _MAX_ITERATIONS, _RESIDUAL_TOL


def scalar_force(model: OscillatorModel):
    """Scalar F(z) closure: complex Horner of alpha(|z|^2) times z."""
    if model.is_linear:
        a = model.linear_a
        return lambda z: a * z
    # alpha(s) = c[0] + c[1] s + ... (ascending), c[n-1] = -2 n u_n
    coefs = [-2.0 * n * u for n, u in enumerate(model.coefficients) if n >= 1]
    coefs.reverse()

    def f(z: complex) -> complex:
        s = z.real * z.real + z.imag * z.imag
        acc = 0.0
        for cc in coefs:
            acc = acc * s + cc
        return acc * z

    return f


def complex_node(F, quarter_dt: float, b: complex, z: complex):
    """Solve z = b + (dt/4) F(z) from the guess z.  Returns (z, iterations),
    iterations = 0 when the iteration did not converge or left a NaN."""
    for it in range(1, _MAX_ITERATIONS + 1):
        znew = b + quarter_dt * F(z)
        converged = abs(znew - z) <= _RESIDUAL_TOL * max(1.0, abs(znew))
        z = znew
        if converged:
            return z, (it if z == z else 0)
    return z, 0
