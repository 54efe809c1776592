"""The omega-scan manifold distance, kept as the test oracle of
`kgpoint.solitary.distance_to_manifold`.

The nonlinear branch scans 401 frequencies over (-m, m), isolates every
amplitude root alpha(C^2) = 2 kappa at each of them and refines omega by
golden section, where `distance_to_manifold` scans s = C^2 and obtains kappa
and omega in closed form.  Both branches form their inner products with
`win_inner` on per-candidate window arrays, where `distance_to_manifold`
reads profile rows against precomputed projections.  The window arrays
(`observables.seminorm_terms`, split back into psi, psi', the one-sided
pair and pi) and the profile stencils come from the current modules, the
amplitude roots from `model.alpha_roots`.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.model import OscillatorModel, alpha_roots
from kgpoint.observables import seminorm_terms
from kgpoint.solitary import (LinearSpanFit, ManifoldDistance, SolitaryWave, ZeroWave,
                              _profile_rows)


def _candidate_window_arrays(wave_params, x_w, half):
    """psi, psi' (the pair average at x = 0), the one-sided pair and pi of
    C e^{-kappa|x|} on the window nodes."""
    C, kappa, omega = wave_params
    n = len(x_w)
    row = C * _profile_rows(np.array([kappa]), x_w, half)[0]
    psi, dpsi, (d_plus, d_minus) = row[:n], row[n:2 * n], row[2 * n:]
    dpsi[half] = 0.5 * (d_plus + d_minus)
    return psi, dpsi, (d_plus, d_minus), -1j * omega * psi


def distance_to_manifold_oracle(model: OscillatorModel, state: FieldState, R: float,
                                n_scan: int = 401) -> ManifoldDistance:
    """min over the solitary set of ||Psi - Phi||_{E,R}, phase eliminated analytically.

    Strictly nonlinear models: dense omega scan over (-m, m) (the admissible
    set may be a union of intervals, which the scan handles without case
    analysis), all amplitude branches per omega, then golden-section
    refinement of omega around the best candidate.  The zero wave is always
    a candidate.  Linear models: least squares onto the span of the two
    resonant modes.
    """
    m = model.mass
    terms = seminorm_terms(state, m, R)
    w, x_w, half, n = terms.w, terms.x, terms.half, len(terms.x)
    state_bundle = (terms.rows[:n], terms.rows[n:2 * n], terms.rows[2 * n:], terms.pi)

    def win_inner(a, b) -> complex:
        apsi, adp, (app, apm), api = a
        bpsi, bdp, (bpp, bpm), bpi = b
        ip = np.sum(w * (api * np.conj(bpi) + adp * np.conj(bdp)
                         + m * m * apsi * np.conj(bpsi)))
        # the kink node carries the average of the two one-sided products
        ip += w[half] * (0.5 * (app * np.conj(bpp) + apm * np.conj(bpm))
                         - adp[half] * np.conj(bdp[half]))
        return complex(ip)

    norm_sq = max(win_inner(state_bundle, state_bundle).real, 0.0)
    rho_zero = float(np.sqrt(norm_sq))

    if model.is_linear:
        a = model.linear_a
        if a <= 0 or a >= 2 * m:
            return ManifoldDistance(rho_zero, ZeroWave())
        omega_a = float(np.sqrt(m * m - 0.25 * a * a))
        e1 = _candidate_window_arrays((1.0, 0.5 * a, -omega_a), x_w, half)  # pi = +i omega_a g
        e2 = _candidate_window_arrays((1.0, 0.5 * a, omega_a), x_w, half)   # pi = -i omega_a g
        v = np.array([win_inner(state_bundle, e1), win_inner(state_bundle, e2)])
        gram = np.array([[win_inner(e1, e1), win_inner(e2, e1)],
                         [win_inner(e1, e2), win_inner(e2, e2)]])
        coef = np.linalg.solve(gram, v)
        res_sq = norm_sq - float(np.real(np.vdot(v, coef)))
        rho = float(np.sqrt(max(res_sq, 0.0)))
        fit = LinearSpanFit(complex(coef[0]), complex(coef[1]), omega_a, 0.5 * a)
        if rho_zero <= rho + 1e-15:
            return ManifoldDistance(rho_zero, ZeroWave())
        return ManifoldDistance(rho, fit)

    def best_at_omega(omega: float):
        kappa = float(np.sqrt(m * m - omega * omega))
        best = (np.inf, None)
        for C in np.sqrt(alpha_roots(model, 2.0 * kappa)).tolist():
            cand = _candidate_window_arrays((C, kappa, omega), x_w, half)
            ip = win_inner(state_bundle, cand)
            nn = win_inner(cand, cand).real
            rho_sq = norm_sq - 2.0 * abs(ip) + nn
            if rho_sq < best[0]:
                best = (rho_sq, (C, kappa, omega, float(np.angle(ip))))
        return best

    eps = 1e-6
    omegas = np.linspace(-m + eps, m - eps, n_scan)
    best_sq, best_params = rho_zero ** 2, None
    best_omega_idx = None
    for idx, om in enumerate(omegas):
        sq, params = best_at_omega(float(om))
        if params is not None and sq < best_sq:
            best_sq, best_params, best_omega_idx = sq, params, idx

    if best_params is None:
        return ManifoldDistance(rho_zero, ZeroWave())

    # golden-section refinement of omega on the bracketing scan interval
    lo = omegas[max(best_omega_idx - 1, 0)]
    hi = omegas[min(best_omega_idx + 1, n_scan - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, pc = best_at_omega(c_)
    fd, pd = best_at_omega(d_)
    for _ in range(70):
        if fc < fd:
            b_, d_, fd, pd = d_, c_, fc, pc
            c_ = b_ - invphi * (b_ - a_)
            fc, pc = best_at_omega(c_)
        else:
            a_, c_, fc, pc = c_, d_, fd, pd
            d_ = a_ + invphi * (b_ - a_)
            fd, pd = best_at_omega(d_)
        if b_ - a_ < 1e-12:
            break
    for sq, params in ((fc, pc), (fd, pd)):
        if params is not None and sq < best_sq:
            best_sq, best_params = sq, params

    if best_params is None or rho_zero ** 2 <= best_sq:
        return ManifoldDistance(rho_zero, ZeroWave())
    C, kappa, omega, theta = best_params
    wave = SolitaryWave(C, theta % (2.0 * np.pi), kappa, omega)
    return ManifoldDistance(float(np.sqrt(max(best_sq, 0.0))), wave)
