"""Free Klein-Gordon machinery: Bessel kernel tables, propagator, free trace.

The retarded Green function of psi_tt = psi_xx - m^2 psi in one dimension is

    G(x, t) = theta(t - |x|) J0(m sqrt(t^2 - x^2)) / 2,

and the free evolution diagonalizes over Fourier modes with dispersion
omega(k) = sqrt(k^2 + m^2): each mode undergoes the rotation

    (psi_k, pi_k) -> (psi_k cos(w t) + pi_k sin(w t)/w,
                      -psi_k w sin(w t) + pi_k cos(w t)).

`free_evolve` applies this on the periodic grid (spectrally accurate for
data supported away from the boundary; callers enforce the no-wrap horizon
rule, which `check_horizon` checks from `fields.support_radius`).
`free_trace` evaluates the center-node trace psi1(0, t) of the same discrete
propagator for many times at once; `kink_split` takes off, as a
point source, the x = 0 kink that a finite Fourier grid aliases.  Because
omega is even, the modes +-k fold into one cosine and one sine amplitude
per wavenumber k >= 0.  At N uniform times t = j dt the trace of K folded
modes is then an exponential sum over the 2K frequencies +-omega_k dt, a
type-1 nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14 (1993)
1368): spread onto a fine grid by a kernel of 16 cells, one FFT, one
division by the kernel's transform.  That costs O(K w + N log N) for every
kind of data, kinked included, and agrees with the mode-by-mode sum to
about 1e-14 of max|h| up to N = 10^5 times, because the fine-grid
positions are formed in long double.

J0 and J1(x)/x both come from one routine for J_nu(x)/x^nu, nu = 0 and 1:
an extended-precision power series up to x = 15 and the full Hankel
asymptotic sums beyond.  The cone sums read them from `KernelTables`, fine
tables with cubic lookup.  Each table is filled in two levels: the function
is evaluated directly on every 64th node only, and one fixed 8-point
Lagrange stencil fills the nodes between.  That needs a function that is
even (the stencil reaches below 0) and smooth on the coarse spacing, as
both Bessel factors are.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .fields import FieldState, support_radius


def check_horizon(initial: FieldState, t_max: float, what: str) -> None:
    """Warn of a no-wrap horizon violation: signals travel at speed < 1, so
    times beyond half_extent - support_radius (`fields.support_radius`, the
    one data radius) can be boundary-contaminated."""
    reach = initial.grid.half_extent - support_radius(initial)
    if t_max > reach + 1e-9:
        # attributed to the innermost caller outside this package
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_globals.get("__package__") == __package__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{what}: time {t_max:.6g} exceeds the no-wrap horizon "
            f"{reach:.6g} (half_extent - data radius); boundary wrap-around "
            "may contaminate the result", stacklevel=level)

_SERIES_CUT = 15.0
_ASYM_TERMS = 34


def _bessel_over_power(x, nu: int) -> float | np.ndarray:
    """J_nu(x) / x^nu for nu = 0 or 1: even in x, absolute error below 1e-13
    for |x| <= 1e4.

    Ascending power series in extended precision for |x| <= 15 (the float64
    series loses ~4 digits to cancellation there), Hankel amplitude/phase
    asymptotics beyond: sqrt(2/(pi x)) (P cos chi - Q sin chi) with
    chi = x - (2 nu + 1) pi/4 and every one of the _ASYM_TERMS terms of P and
    Q, from the recurrence c_j = c_{j-1} (4 nu^2 - (2j-1)^2)/(8j).  Both
    branches agree to ~1e-14 at the splice.
    """
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    small = x <= _SERIES_CUT
    if np.any(small):
        xs = x[small].astype(np.longdouble)
        q = -(xs * xs) / np.longdouble(4)
        term = np.full_like(xs, np.longdouble(0.5 ** nu))
        acc = term.copy()
        for k in range(1, 46):
            term = term * q / np.longdouble(k * (k + nu))
            acc += term
        out[small] = acc.astype(float)
    if np.any(~small):
        xl = x[~small]
        P = np.ones_like(xl)
        Q = np.zeros_like(xl)
        xp = np.ones_like(xl)
        inv = 1.0 / xl
        c = 1.0
        for j in range(1, _ASYM_TERMS):
            c *= (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j)
            xp = xp * inv
            if j % 2 == 0:
                P += ((-1.0) ** (j // 2)) * c * xp
            else:
                Q += ((-1.0) ** ((j - 1) // 2)) * c * xp
        chi = xl - (0.25 + 0.5 * nu) * np.pi
        out[~small] = np.sqrt(2.0 / (np.pi * xl)) * (P * np.cos(chi) - Q * np.sin(chi)) / xl ** nu
    return float(out[0]) if scalar else out


def bessel_j0(x) -> float | np.ndarray:
    """J0(x), even in x, absolute error below 1e-13 for |x| <= 1e4."""
    return _bessel_over_power(x, 0)


def bessel_j1_over_x(x) -> float | np.ndarray:
    """J1(x)/x, even in x, -> 1/2 at x = 0; same accuracy scheme as bessel_j0.

    This is the smooth factor of the Green function's interior time
    derivative, dG/dt = -(m^2 t / 2) [J1/(.)](m sqrt(t^2 - x^2)).
    """
    return _bessel_over_power(x, 1)


_TABLE_SPACING = 2.5e-4
# fine table cells per coarse cell of the two-level fill; a power of two, so
# that coarse node k lands on (_COARSE k) * spacing bit for bit
_COARSE = 64


def _fill_weights() -> np.ndarray:
    """8-point Lagrange weights on the coarse nodes c-3 .. c+4 at the offsets
    r / _COARSE, r = 0 .. _COARSE-1, as an (8, _COARSE) matrix.  Column 0 is
    exactly (0, 0, 0, 1, 0, 0, 0, 0)."""
    nodes = np.arange(-3.0, 5.0)
    u = np.arange(_COARSE) / _COARSE
    w = np.ones((8, _COARSE))
    for j in range(8):
        for k in range(8):
            if k != j:
                w[j] *= (u - nodes[k]) / (nodes[j] - nodes[k])
    return w


_FILL_WEIGHTS = _fill_weights()


class BesselTable:
    """Values of fn on the uniform grid k * spacing, covering [0, a_max] plus
    the interpolation stencil's overhang.

    The table is filled in two levels.  fn is evaluated directly only on the
    coarse nodes k H, H = _COARSE * spacing = 0.016, including three nodes
    below 0, which come from fn(|k| H): fn must be even.  Fine entry
    _COARSE c + r is the 8-point Lagrange interpolant on the coarse nodes
    c-3 .. c+4 at offset r / _COARSE, so the whole table is one
    (cells x 8) @ (8 x _COARSE) matrix product.  Every _COARSE-th entry
    equals fn(k H) bit for bit (its weights are one and zeros).  fn must be
    smooth on the scale of H: for J0 and J1(x)/x the truncation error is
    about 1e-3 H^8 |fn^(8)| ~ 5e-18, below the roundoff of fn itself.
    """

    def __init__(self, fn, a_max: float):
        self.a_max = float(a_max)
        self.spacing = _TABLE_SPACING
        n = int(np.ceil(self.a_max / self.spacing)) + 4
        cells = -(-n // _COARSE)
        coarse = fn(np.abs(np.arange(-3, cells + 5)) * (_COARSE * self.spacing))
        stencils = coarse[np.arange(cells)[:, None] + np.arange(8)]
        values = np.empty(cells * _COARSE)
        np.matmul(stencils, _FILL_WEIGHTS, out=values.reshape(cells, _COARSE))
        self.values = values[:n]


class KernelTables:
    """Shared J0 and J1/x tables covering kernel arguments up to a_max.

    Each table is filled from direct evaluations on a 64x coarser grid (see
    `BesselTable`); both functions are even and entire, as that fill needs.
    A call interpolates both with 4-point Lagrange (cubic) weights.  The
    interpolation error ~ h^4 |f''''|/24 ~ 1e-16 at the table spacing, so
    table lookups inside the cone sums agree with direct evaluation to
    roundoff; the x = 0 reconstruction column then matches the trace
    solver's exact kernel values.
    """

    def __init__(self, a_max: float):
        self.a_max = float(a_max)
        self.spacing = _TABLE_SPACING
        self.j0 = BesselTable(bessel_j0, a_max)
        self.j1x = BesselTable(bessel_j1_over_x, a_max)

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


def _edge_derivative_jump(values: np.ndarray, c: int, h: float) -> complex:
    """Jump f'(0+) - f'(0-) from fourth-order one-sided stencils at node c."""
    st = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    right = np.dot(st, values[c:c + 5])
    left = -np.dot(st, values[c::-1][:5])
    return complex(right - left)


# largest |J_h - J_2h| / max(|J_h|, |J_2h|) of two jump estimates that
# count as one kink.  Measured at h = 0.2 / 0.42 / 0.615: smooth seeded
# Gaussians (seeds 1-10) give at least 0.96 / 0.89 / 0.88 (15/16 as h -> 0:
# the residue grows 2^4 times), the C = 0.5 solitary profile at most
# 0.0002 / 0.0029 / 0.0098 and the solitary plus the default bump
# 0.0019 / 0.0109 / 0.116.
_KINK_AGREEMENT = 0.3


def _kink_jump(values: np.ndarray, c: int, h: float, floor: float) -> complex:
    """The derivative jump of `values` at node c if it is a kink, else 0.

    A true jump is the same at every spacing, while the O(h^4 f^(5)) residue
    the stencils leave on smooth data grows 16x from h to 2h.  So the jump
    at h counts only when it exceeds `floor` and the estimate on every
    second node (spacing 2h) agrees with it to _KINK_AGREEMENT.  Grids too
    small for the 2h stencil skip the agreement test.
    """
    jump = _edge_derivative_jump(values, c, h)
    if abs(jump) <= floor:
        return 0j
    if c >= 8 and len(values) - c > 8:
        coarse = _edge_derivative_jump(values[c % 2::2], c // 2, 2.0 * h)
        if abs(jump - coarse) > _KINK_AGREEMENT * max(abs(jump), abs(coarse)):
            return 0j
    return jump


class KinkSplit:
    """Decomposition of initial data into an exponential kink pair plus a C1 rest.

    psi0 = a g + rest.psi and pi0 = b g + rest.pi with g = e^{-kappa1 |x|}
    chosen to carry the derivative jumps at x = 0.  As
    g'' = kappa1^2 g - 2 kappa1 delta and kappa1^2 + omega1^2 = m^2 (the mass
    shell), the standing field g A(t), A = a cos(omega1 t) +
    (b / omega1) sin(omega1 t), solves the equation with the point source
    2 kappa1 A(t) at x = 0.  The pair's free evolution is therefore that
    standing field (`standing`) plus the Duhamel field of the point source
    -2 kappa1 A (`source`): the form of the coupled field, whose point
    source is F(z).  The remainder `rest` is kink-free and safe to push
    through the grid's Fourier propagator: sampling a kink puts O(1/k^2)
    spectral tails beyond the Nyquist wavenumber, and their aliases would
    otherwise re-enter at wrong frequencies with O(h) amplitude.
    """

    def __init__(self, initial: FieldState, a: complex, b: complex, kappa1: float,
                 omega1: float):
        self.a = a
        self.b = b
        self.kappa1 = kappa1
        self.omega1 = omega1
        self.g = np.exp(-kappa1 * np.abs(initial.grid.x))
        self.rest = FieldState(initial.grid, initial.psi - a * self.g,
                               initial.pi - b * self.g, initial.time)

    def source(self, t) -> np.ndarray:
        """The pair's point source -2 kappa1 A(t) at the times t."""
        w = self.omega1
        return -2.0 * self.kappa1 * (self.a * np.cos(w * t) + (self.b / w) * np.sin(w * t))

    def standing(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(psi, pi) = (g A(t), g A'(t)) of the pair's standing field."""
        w = self.omega1
        c, s = np.cos(w * t), np.sin(w * t)
        return (self.a * c + (self.b / w) * s) * self.g, (self.b * c - self.a * w * s) * self.g


def kink_split(initial: FieldState, m: float) -> KinkSplit:
    """Split the x = 0 derivative kink off the initial data.

    psi and pi each count as kinked when `_kink_jump` accepts their jump:
    above a threshold well above the O(h^4) stencil noise of smooth fields
    and well below any dynamically generated jump (whose size is the point
    force, order of the field scale), and the same at spacings h and 2h.
    Otherwise, and on grids too small for the stencil, the amplitude is zero.
    """
    grid = initial.grid
    c = grid.center_index
    kappa1 = 0.75 * m
    a = b = 0j
    if c >= 4 and grid.n_points - c > 4:
        h = grid.spacing
        floor = 1e-5 * max(np.max(np.abs(initial.psi)), np.max(np.abs(initial.pi)), 1e-30)
        a = _kink_jump(initial.psi, c, h, floor) / (-2.0 * kappa1)
        b = _kink_jump(initial.pi, c, h, floor) / (-2.0 * kappa1)
    return KinkSplit(initial, a, b, kappa1, float(np.sqrt(m * m - kappa1 * kappa1)))


# the type-1 NUFFT of `free_trace` (Barnett, Magland & af Klinteberg, SIAM J.
# Sci. Comput. 41 (2019) C479): the "exponential of semicircle" kernel
# spans _NUFFT_WIDTH cells of a fine grid at least twice the output count,
# with beta = 2.30 per cell; the error then sits near roundoff
_NUFFT_WIDTH = 16
_NUFFT_BETA = 2.30 * _NUFFT_WIDTH
# points spread, kernel transform values formed and outputs corrected, per
# block, so that the temporaries stay at 512 x _NUFFT_WIDTH entries whatever
# the mode and time counts
_NUFFT_CHUNK = 512


def _semicircle_kernel(z: np.ndarray) -> np.ndarray:
    """phi(z) = e^{beta (sqrt(1 - z^2) - 1)} on |z| <= 1, phi(0) = 1."""
    return np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))


def _kernel_transform_rule() -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes z_q of 48-point Gauss-Legendre on [-1, 1] and the weights
    2 W_q phi(z_q), so that the kernel's transform int phi(z) cos(a z) dz over
    [-1, 1] is sum_q weight_q cos(a z_q).  With 12 nodes the sweep-geometry
    trace was off by 1.2e-6 of max|h|; 24 reach roundoff."""
    z, wq = np.polynomial.legendre.leggauss(48)
    z, wq = z[24:], wq[24:]
    return z, 2.0 * wq * _semicircle_kernel(z)


_KERNEL_NODES, _KERNEL_WEIGHTS = _kernel_transform_rule()


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the FFT factors into small radices."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


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


def _exp_sum(coef: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """sum_p coef_p e^{i j x_p} for j = 0 .. n-1 by a type-1 nonuniform FFT.

    The frequencies `x` come in long double.  The outputs are centred at
    n0 = n // 2: coef_p picks up e^{i n0 x_p} and j = n0 + k, |k| <= n/2.
    Each point is spread with the kernel psi(s) = phi(2 s / w) onto the
    fine periodic grid of M >= 2 n cells at the position
    u_p = x_p M / (2 pi) mod M; one inverse FFT gives
    sum_p coef_p sum_l psi(l - u_p) e^{2 pi i k l / M}
    = sum_p coef_p e^{i k x_p} psi^(2 pi k / M) up to an aliasing error near
    roundoff, and dividing by the kernel transform psi^ leaves the sum.
    psi^ is even in k, so it is formed once for k = 0 .. n0 and read at |k|;
    over all k it took 6.4 of the 10.5 ms of a free trace of 30001 times.
    Both the positions and the centring phases are formed in long double
    and reduced there: a position off by one double ulp turns the phase at
    output k by k ulp.
    """
    m_fine = _smooth_length(2 * n)
    n0 = n // 2
    width = _NUFFT_WIDTH
    centre = n0 * x
    coef = coef * (np.cos(centre).astype(float) + 1j * np.sin(centre).astype(float))
    u = (x * (m_fine / (8 * np.arctan(np.longdouble(1))))) % m_fine
    cell = np.floor(u)
    frac = (u - cell).astype(float)
    cell = cell.astype(np.intp)
    # taps l = cell - 7 .. cell + 8 cover every l with |l - u| <= w/2
    taps = np.arange(width) - (width // 2 - 1)
    b = np.zeros(m_fine, dtype=complex)
    for lo in range(0, len(coef), _NUFFT_CHUNK):
        hi = min(lo + _NUFFT_CHUNK, len(coef))
        z = (taps - frac[lo:hi, None]) * (2.0 / width)
        ker = _semicircle_kernel(z) * coef[lo:hi, None]
        np.add.at(b, ((cell[lo:hi, None] + taps) % m_fine).ravel(), ker.ravel())
    np.fft.ifft(b, out=b)
    # psi^(2 pi k / M) = (w / 2) int phi(z) cos(pi k w z / M) dz, even in k
    transform = np.empty(n0 + 1)
    for lo in range(0, n0 + 1, _NUFFT_CHUNK):
        k = np.arange(lo, min(lo + _NUFFT_CHUNK, n0 + 1))
        transform[lo:lo + len(k)] = np.cos(
            np.multiply.outer(k * (np.pi * width / m_fine), _KERNEL_NODES)) @ _KERNEL_WEIGHTS
    scale = 2.0 * m_fine / width / transform
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, _NUFFT_CHUNK):
        k = np.arange(lo - n0, min(lo + _NUFFT_CHUNK, n) - n0)
        out[lo:lo + len(k)] = b[k % m_fine] * scale[np.abs(k)]
    return out


def free_trace(initial: FieldState, times: np.ndarray, m: float) -> np.ndarray:
    """Center-node trace psi1(0, t_j) of the free evolution of `initial`.

    `times` must be uniform and start at 0.  The result equals
    `free_evolve(initial, t).psi[center]` at every requested time (same
    discrete propagator, evaluated at one node) to about 1e-14 of max|h|.
    The modes +-k are folded into h(t) = sum_k A_k cos(w_k t) +
    B_k sin(w_k t) over the K = n//2+1 wavenumbers k >= 0, so at t = j dt

        h_j = sum_k c+_k e^{+i j w_k dt} + c-_k e^{-i j w_k dt},
        c+-_k = (A_k -+ i B_k) / 2,

    a type-1 nonuniform FFT of 2K points (`_exp_sum`): O(K w + N log N)
    for N times and kernel width w, for smooth and kinked data alike.  The
    caller checks the horizon and splits off any kink.
    """
    initial.require_finite()
    times = np.asarray(times, dtype=float)
    if not (len(times) >= 2 and abs(times[0]) < 1e-14
            and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-10, atol=0)):
        raise ValueError("free_trace needs at least two uniform times starting at 0")
    amp_cos, amp_sin, w = _folded_modes(initial, m)
    x = w.astype(np.longdouble) * np.longdouble(times[1] - times[0])
    coef = np.concatenate((amp_cos - 1j * amp_sin, amp_cos + 1j * amp_sin)) / 2.0
    return _exp_sum(coef, np.concatenate((x, -x)), len(times))
