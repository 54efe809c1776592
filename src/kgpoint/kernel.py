"""Free Klein-Gordon machinery: Bessel kernel, Green function, propagator.

The retarded Green function of psi_tt = psi_xx - m^2 psi in one dimension is

    G(x, t) = theta(t - |x|) J0(m sqrt(t^2 - x^2)) / 2,

and the free evolution diagonalizes over Fourier modes with dispersion
omega(k) = sqrt(k^2 + m^2): each mode undergoes the rotation

    (psi_k, pi_k) -> (psi_k cos(w t) + pi_k sin(w t)/w,
                      -psi_k w sin(w t) + pi_k cos(w t)).

`free_evolve` applies this on the periodic grid (spectrally accurate for
data supported away from the boundary; callers enforce the no-wrap horizon
rule).  `free_trace` evaluates the center-node trace psi1(0, t) of the same
discrete propagator for many times at once, with an analytic correction for
the exponential-kink content that a finite Fourier grid aliases.  Because
omega is even, the modes +-k fold into one cosine and one sine amplitude
per wavenumber k >= 0, and the trace at N uniform times t = (s L + l) dt,
L ~ sqrt(N), becomes by angle addition one real matrix product per chunk of
modes: the phases of the L offsets l dt against the amplitudes rotated to
the N/L starts s L dt.  That is O(sqrt(N)) trig calls per mode and the
multiply-adds run in BLAS, with no per-step loop.
"""

from __future__ import annotations

import warnings

import numpy as np

from .fields import FieldState


def support_radius(state: FieldState, rel: float = 1e-10) -> float:
    """Radius of the data support at a relative magnitude threshold."""
    mag = np.maximum(np.abs(state.psi), np.abs(state.pi))
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    idx = np.nonzero(mag > rel * peak)[0]
    x = state.grid.x
    return float(max(abs(x[idx[0]]), abs(x[idx[-1]])))


def check_horizon(initial: FieldState, t_max: float, what: str) -> None:
    """Report a no-wrap horizon violation: signals travel at speed < 1, so
    times beyond half_extent - support_radius can be boundary-contaminated."""
    reach = initial.grid.half_extent - support_radius(initial)
    if t_max > reach + 1e-9:
        warnings.warn(
            f"{what}: time {t_max:.6g} exceeds the no-wrap horizon "
            f"{reach:.6g} (half_extent - data radius); boundary wrap-around "
            "may contaminate the result", stacklevel=3)

_SERIES_CUT = 15.0
_ASYM_TERMS = 34


def _hankel(x: np.ndarray, mu: float, chi_shift: float) -> np.ndarray:
    """Large-argument amplitude/phase form sqrt(2/(pi x)) (P cos chi - Q sin chi)
    with the standard coefficient recurrence c_j = c_{j-1} (mu - (2j-1)^2)/(8j)."""
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    c = 1.0
    xp = np.ones_like(x)
    inv = 1.0 / x
    for j in range(1, _ASYM_TERMS):
        c *= (mu - (2 * j - 1) ** 2) / (8.0 * j)
        xp = xp * inv
        if j % 2 == 0:
            P += ((-1.0) ** (j // 2)) * c * xp
        else:
            Q += ((-1.0) ** ((j - 1) // 2)) * c * xp
    chi = x - chi_shift
    return np.sqrt(2.0 / (np.pi * x)) * (P * np.cos(chi) - Q * np.sin(chi))


def bessel_j0(x) -> float | np.ndarray:
    """J0(x), even in x, absolute error below 1e-13 for |x| <= 1e4.

    Ascending power series in extended precision for |x| <= 15 (the float64
    series loses ~4 digits to cancellation there), Hankel amplitude/phase
    asymptotics beyond.  Both branches agree to ~1e-14 at the splice.
    """
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    small = x <= _SERIES_CUT
    if np.any(small):
        xs = x[small].astype(np.longdouble)
        q = -(xs * xs) / np.longdouble(4)
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for k in range(1, 46):
            term = term * q / np.longdouble(k * k)
            acc += term
        out[small] = acc.astype(float)
    if np.any(~small):
        out[~small] = _hankel(x[~small], 0.0, 0.25 * np.pi)
    return float(out[0]) if scalar else out


def bessel_j1_over_x(x) -> float | np.ndarray:
    """J1(x)/x, even in x, -> 1/2 at x = 0; same accuracy scheme as bessel_j0.

    This is the smooth factor of the Green function's interior time
    derivative, dG/dt = -(m^2 t / 2) [J1/(.)](m sqrt(t^2 - x^2)).
    """
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    small = x <= _SERIES_CUT
    if np.any(small):
        xs = x[small].astype(np.longdouble)
        q = -(xs * xs) / np.longdouble(4)
        term = np.full_like(xs, np.longdouble(0.5))
        acc = np.full_like(xs, np.longdouble(0.5))
        for k in range(1, 46):
            term = term * q / np.longdouble(k * (k + 1))
            acc += term
        out[small] = acc.astype(float)
    if np.any(~small):
        xl = x[~small]
        out[~small] = _hankel(xl, 4.0, 0.75 * np.pi) / xl
    return float(out[0]) if scalar else out


def bessel_j1(x) -> float | np.ndarray:
    """J1(x) = x * (J1(x)/x); odd in x."""
    x = np.asarray(x, dtype=float)
    out = x * bessel_j1_over_x(x)
    return float(out) if out.ndim == 0 else out


_BUILD_CHUNK = 1 << 15  # table points per fn call, so fn's temporaries stay in cache


class BesselTable:
    """Values of fn on the uniform grid k * spacing, covering [0, a_max] plus
    the interpolation stencil's overhang.

    fn is evaluated chunk by chunk; it acts pointwise, so the values equal
    fn(np.arange(n) * spacing) bit for bit.
    """

    def __init__(self, fn, a_max: float, spacing: float = 2.5e-4):
        self.a_max = float(a_max)
        self.spacing = float(spacing)
        n = int(np.ceil(self.a_max / self.spacing)) + 4
        self.values = np.empty(n)
        for lo in range(0, n, _BUILD_CHUNK):
            hi = min(lo + _BUILD_CHUNK, n)
            self.values[lo:hi] = fn(np.arange(lo, hi) * self.spacing)


class KernelTables:
    """Shared J0 and J1/x tables covering kernel arguments up to a_max.

    A call interpolates both with 4-point Lagrange (cubic) weights.  The
    interpolation error ~ h^4 |f''''|/24 ~ 1e-16 at the default spacing, so
    table lookups inside the cone sums agree with direct evaluation to
    roundoff; the x = 0 reconstruction column then matches the trace
    solver's exact kernel values.
    """

    def __init__(self, a_max: float, spacing: float = 2.5e-4):
        self.a_max = float(a_max)
        self.spacing = float(spacing)
        self.j0 = BesselTable(bessel_j0, a_max, spacing)
        self.j1x = BesselTable(bessel_j1_over_x, a_max, spacing)

    def __call__(self, a, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(J0(a), J1(a)/a) for a >= 0.

        The cell index and the four weights are computed once and both
        tables are gathered with them; each result equals interpolating its
        table on its own bit for bit.  `out`, a pair of float arrays shaped
        like `a`, receives the values.
        """
        u = np.asarray(a, dtype=float) / self.spacing
        if out is None:
            out = (np.empty_like(u), np.empty_like(u))
        i = u.astype(np.intp)
        np.clip(i, 1, len(self.j0.values) - 3, out=i)
        w = u
        w -= i
        w_m1 = w - 1.0
        w_m2 = w - 2.0
        w_p1 = w + 1.0
        # weights of the nodes i-1 .. i+2: -w (w-1) (w-2) / 6,
        # (w+1) (w-1) (w-2) / 2, -(w+1) w (w-2) / 2 and (w+1) w (w-1) / 6,
        # each multiplied out left to right.  Updating in place rather than
        # in expressions saves a dozen fresh arrays per call, which costs
        # about 1.7x in the cone sum.
        c_m = np.negative(w)
        c_m *= w_m1
        c_m *= w_m2
        c_m /= 6.0
        c_0 = w_p1 * w_m1
        c_0 *= w_m2
        c_0 /= 2.0
        c_p = np.negative(w_p1)
        c_p *= w
        c_p *= w_m2
        c_p /= 2.0
        c_q = w_p1
        c_q *= w
        c_q *= w_m1
        c_q /= 6.0
        i -= 1
        term = w_m2
        for table, res in zip((self.j0, self.j1x), out):
            v = table.values
            np.take(v, i, out=res, mode="clip")
            res *= c_m
            for shift, c in ((1, c_0), (2, c_p), (3, c_q)):
                np.take(v[shift:], i, out=term, mode="clip")
                term *= c
                res += term
        return out[0], out[1]


def green_g(x, t, m: float):
    """Retarded Green function G(x, t) = theta(t - |x|) J0(m sqrt(t^2 - x^2)) / 2."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    inside = t > np.abs(x)
    arg = m * np.sqrt(np.where(inside, t * t - x * x, 0.0))
    out = np.where(inside, 0.5 * bessel_j0(arg), 0.0)
    return float(out) if out.ndim == 0 else out


def _mode_data(state: FieldState):
    """FFT of (psi, pi) on the grid (periodic; last node dropped as the
    duplicate of the first) plus the mode frequencies and the phase aligning
    the transform to the center node."""
    n = state.grid.n_points - 1  # periodic length
    psi_h = np.fft.fft(state.psi[:n])
    pi_h = np.fft.fft(state.pi[:n])
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=state.grid.spacing)
    return psi_h, pi_h, k, n


def free_evolve(state: FieldState, dt_target: float, m: float) -> FieldState:
    """Free Klein-Gordon evolution by dt_target via the discrete spectral propagator."""
    state.require_finite()
    if dt_target == 0.0:
        out = state.copy()
        return out
    psi_h, pi_h, k, n = _mode_data(state)
    w = np.sqrt(k * k + m * m)
    c, s = np.cos(w * dt_target), np.sin(w * dt_target)
    psi_h2 = psi_h * c + pi_h * (s / w)
    pi_h2 = -psi_h * (w * s) + pi_h * c
    psi = np.fft.ifft(psi_h2)
    pi = np.fft.ifft(pi_h2)
    psi = np.append(psi, psi[0])
    pi = np.append(pi, pi[0])
    return FieldState(state.grid, psi, pi, state.time + dt_target)


def spectral_energy_norm(state: FieldState, m: float) -> float:
    """Energy norm ||Psi||_E in the exact discrete-spectral metric.

    This is the quantity each Fourier rotation of `free_evolve` preserves
    identically; the physical-space quadrature norm differs from it by O(h^2).
    """
    psi_h, pi_h, k, n = _mode_data(state)
    w2 = k * k + m * m
    total = np.sum(np.abs(pi_h) ** 2 + w2 * np.abs(psi_h) ** 2)
    return float(np.sqrt(total * state.grid.spacing / n))


def convolve_j0(times: np.ndarray, f: np.ndarray, m: float) -> np.ndarray:
    """Trapezoid product integration of int_0^t J0(m (t - s)) f(s) ds.

    `times` must be uniform starting at 0.  One FFT linear convolution gives
    all upper limits at once; the i = t node carries half weight.
    """
    n = len(times)
    dt = times[1] - times[0]
    kern = bessel_j0(m * times)
    g = f.astype(complex).copy()
    g[0] *= 0.5
    npad = 1
    while npad < 2 * n:
        npad *= 2
    conv = np.fft.ifft(np.fft.fft(kern, npad) * np.fft.fft(g, npad))[:n]
    out = dt * (conv - kern[0] * g + 0.5 * kern[0] * f)
    out[0] = 0.0
    return out


def _edge_derivative_jump(values: np.ndarray, c: int, h: float) -> complex:
    """Jump f'(0+) - f'(0-) from fourth-order one-sided stencils at node c."""
    st = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    right = np.dot(st, values[c:c + 5])
    left = -np.dot(st, values[c::-1][:5])
    return complex(right - left)


class KinkSplit:
    """Decomposition of initial data into an exponential kink pair plus a C1 rest.

    psi0 = a g + psi_s and pi0 = b g + pi_s with g = e^{-kappa1 |x|} chosen to
    carry the derivative jumps at x = 0.  The pair (a g, b g) has a free
    evolution known in closed form through the mass-shell identity (see
    `mass_shell_trace`), while the remainder is kink-free and safe to push
    through the grid's Fourier propagator: sampling a kink puts O(1/k^2)
    spectral tails beyond the Nyquist wavenumber, and their aliases would
    otherwise re-enter at wrong frequencies with O(h) amplitude.
    """

    def __init__(self, a: complex, b: complex, kappa1: float, omega1: float,
                 g: np.ndarray):
        self.a = a
        self.b = b
        self.kappa1 = kappa1
        self.omega1 = omega1
        self.g = g


def kink_split(initial: FieldState, m: float) -> KinkSplit | None:
    """Detect and split the x = 0 derivative kink; None for smooth data.

    The detection threshold sits well above the O(h^4) stencil noise of
    smooth fields and well below any dynamically generated jump (whose size
    is the point force, order of the field scale).
    """
    grid = initial.grid
    c = grid.center_index
    if c < 4 or grid.n_points - c <= 4:
        return None
    h = grid.spacing
    jump_psi = _edge_derivative_jump(initial.psi, c, h)
    jump_pi = _edge_derivative_jump(initial.pi, c, h)
    scale = max(np.max(np.abs(initial.psi)), np.max(np.abs(initial.pi)), 1e-30)
    if max(abs(jump_psi), abs(jump_pi)) <= 1e-5 * scale:
        return None
    kappa1 = 0.75 * m
    omega1 = float(np.sqrt(m * m - kappa1 * kappa1))
    g = np.exp(-kappa1 * np.abs(grid.x))
    return KinkSplit(a=jump_psi / (-2.0 * kappa1), b=jump_pi / (-2.0 * kappa1),
                     kappa1=kappa1, omega1=omega1, g=g)


def mass_shell_trace(times: np.ndarray, m: float, kappa: float, omega: float) -> np.ndarray:
    """Exact free trace of the pair (e^{-kappa|x|}, -i omega e^{-kappa|x|}).

    On the mass shell kappa^2 = m^2 - omega^2 the field
    e^{-kappa|x|} e^{-i omega t} solves the equation with point source
    2 kappa e^{-i omega t}, so Duhamel gives the free part in closed form:

        h(t) = e^{-i omega t} - kappa int_0^t J0(m (t - s)) e^{-i omega s} ds.
    """
    osc = np.exp(-1j * omega * times)
    return osc - kappa * convolve_j0(times, osc, m)


# entries per temporary of the free-trace mode sum, so that a chunk's phase
# and amplitude arrays stay in cache next to the output they accumulate into
_TRACE_ENTRIES = 1 << 13


def _folded_modes(state: FieldState, m: float):
    """Amplitudes (A, B) and frequencies w of the center-node trace
    h(t) = sum_k A_k cos(w_k t) + B_k sin(w_k t) of the free evolution.

    omega(k) is even and the grid wavenumbers satisfy k[n-i] == -k[i]
    exactly, so the modes +-k share one frequency and fold into the n//2+1
    wavenumbers k >= 0 (the Nyquist mode, for even n, has no partner).
    """
    psi_h, pi_h, k, n = _mode_data(state)
    c = state.grid.center_index
    w = np.sqrt(k * k + m * m)
    phase = np.exp(2j * np.pi * np.arange(n) * c / n)  # e^{i k x_center}
    a_k = psi_h * phase / n
    b_k = pi_h * phase / (n * w)
    n_fold = n // 2 + 1
    pairs = (n - 1) // 2
    amp_cos = a_k[:n_fold].copy()
    amp_sin = b_k[:n_fold].copy()
    amp_cos[1:1 + pairs] += a_k[:n // 2:-1]
    amp_sin[1:1 + pairs] += b_k[:n // 2:-1]
    return amp_cos, amp_sin, w[:n_fold]


def _mode_sum(amp_cos: np.ndarray, amp_sin: np.ndarray, w: np.ndarray,
              tau: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """sum_k A_k cos(w_k t) + B_k sin(w_k t) at every t = t0_s + tau_l,
    flattened with index s len(tau) + l.

    By the angle-addition formulas the sum at (s, l) is
    sum_k cos(w_k tau_l) U_ks + sin(w_k tau_l) V_ks, where
    U = A cos(w t0_s) + B sin(w t0_s) and V = B cos(w t0_s) - A sin(w t0_s).
    Per chunk of modes that is one real matrix product of the stacked
    [Re; Im] rows of [U | V] with the stacked [cos; sin] phases of tau; the
    chunks are sized so that each of their arrays holds at most
    _TRACE_ENTRIES entries (unless a single mode's row is already longer).
    """
    n_in, n_out = len(tau), len(t0)
    chunk = max(1, _TRACE_ENTRIES // (4 * max(n_in, n_out)))
    acc = np.zeros((2 * n_out, n_in))
    prod = np.empty_like(acc)
    parts = ((slice(0, n_out), amp_cos.real, amp_sin.real),
             (slice(n_out, None), amp_cos.imag, amp_sin.imag))
    for lo in range(0, len(w), chunk):
        hi = min(lo + chunk, len(w))
        kc = hi - lo
        rot = np.empty((2 * kc, n_in))
        ph = np.multiply.outer(w[lo:hi], tau)
        np.cos(ph, out=rot[:kc])
        np.sin(ph, out=rot[kc:])
        ph0 = np.multiply.outer(t0, w[lo:hi])
        c0, s0 = np.cos(ph0), np.sin(ph0)
        uv = np.empty((2 * n_out, 2 * kc))
        for rows, a, b in parts:
            uv[rows, :kc] = a[lo:hi] * c0 + b[lo:hi] * s0
            uv[rows, kc:] = b[lo:hi] * c0 - a[lo:hi] * s0
        np.matmul(uv, rot, out=prod)
        acc += prod
    return acc[:n_out].ravel() + 1j * acc[n_out:].ravel()


def free_trace(initial: FieldState, times: np.ndarray, m: float,
               kink_correction: bool = True) -> np.ndarray:
    """Center-node trace psi1(0, t_j) of the free evolution of `initial`.

    Equals `free_evolve(initial, t).psi[center]` for every requested time
    (same discrete propagator, evaluated at one node).  The modes +-k are
    folded into h(t) = sum_k A_k cos(w_k t) + B_k sin(w_k t) over the
    n//2+1 wavenumbers k >= 0 and summed as a blocked real matrix product
    (`_mode_sum`).  N uniform times are split as t = (s L + l) dt with
    L = ceil(sqrt(N)), so each mode needs the phases of L offsets and N/L
    starts only; other times get their phases computed directly.

    Sampled data with a derivative kink at x = 0 (every solitary profile)
    put O(1/k^2) tails beyond the grid's Nyquist wavenumber; the aliased
    part re-enters the trace at wrong frequencies with O(h) amplitude at
    early times.  With `kink_correction` the kink content is split off as
    a multiple of e^{-kappa1 |x|} pairs whose free traces are known in
    closed form (`mass_shell_trace` combinations), and only the kink-free
    remainder goes through the grid propagator.  The correction requires
    uniform times starting at 0; otherwise the plain mode sum is used.
    """
    initial.require_finite()
    times = np.asarray(times, dtype=float)
    if len(times):
        check_horizon(initial, float(np.max(times)), "free_trace")
    grid = initial.grid

    uniform = (len(times) >= 2 and abs(times[0]) < 1e-14
               and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-10, atol=0))

    psi_work = initial.psi
    pi_work = initial.pi
    correction = None
    split = kink_split(initial, m) if (kink_correction and uniform) else None
    if split is not None:
        psi_work = initial.psi - split.a * split.g
        pi_work = initial.pi - split.b * split.g
        k1, w1 = split.kappa1, split.omega1
        ccos = convolve_j0(times, np.cos(w1 * times), m)
        csin = convolve_j0(times, np.sin(w1 * times), m)
        h_g0 = np.cos(w1 * times) - k1 * ccos
        h_0g = np.sin(w1 * times) / w1 - (k1 / w1) * csin
        correction = split.a * h_g0 + split.b * h_0g

    work = FieldState(grid, psi_work, pi_work, initial.time)
    amp_cos, amp_sin, w = _folded_modes(work, m)
    if uniform:
        # t_(s L + l) = t_(s L) + l dt; the overshoot past N is cut off
        inner = int(np.ceil(np.sqrt(len(times))))
        tau = np.arange(inner) * (times[1] - times[0])
        t0 = times[::inner]
    else:
        tau, t0 = times, np.zeros(1)
    out = _mode_sum(amp_cos, amp_sin, w, tau, t0)[:len(times)]

    if correction is not None:
        out += correction
    return out
