"""Decay rates, Casimir-Polder shifts, asymptotic laws, population dynamics.

Conventions (scalar sandwich s(omega) = d . G^(1)(z, z, omega) . conj(d)),
in the package's units c = hbar = mu0 = eps0 = 1 (`cpshift.units`):

    Gamma^(1)   = 2 w^2 Im s(w)
    dw_res      = -w^2 Re s(w)
    dw_nres     = (1/pi) int dxi xi^3/(xi^2+w^2) Im s(i xi)
                  - (1/pi) int dxi xi^2 w/(xi^2+w^2) Re s(i xi)

with w the (possibly shifted) transition frequency.  `greens_grid` gives
the real-axis tensors of all heights of a scan at once.
`nonresonant_shift_grid` does the xi-integral in closed form and integrates
over tau = 1/s, s = k_perp/(i xi), instead: every height is an owner of
one lockstep quadrature, starting on a dyadic ladder of tau that reaches
its scale 2 w z.  Both choose their
route on one fact, the medium's `constant_reflection`: a medium that
states one (the ideal mirrors, the constant test medium, the axion
half-space at epsilon = 1) takes closed forms for both, every other medium
the k-quadrature and the s-integral.  The one-height functions are the
N = 1 cases of the grid ones, so a grid value equals its one-height value
bit for bit.  A rate or shift that is not finite raises QuadratureError,
with the first such height as its owner (`_finite`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .greens import (PlanarTensors, _dipole_weights, _grid_omega, _heights,
                     closed_form_greens, numeric_greens)
from .media import (AxionMedium, PerfectConductor, PerfectNonreciprocalMirror,
                    ReflectionMatrix, _AxionDifference,
                    nonretarded_limit_coefficients, retarded_limit_coefficients)
from .quadrature import (DEFAULT_CONFIG, LEVELS_MAX, QuadratureConfig, QuadratureError,
                         _check_count, _check_positive, integrate_batch)
# not called here but importable from this module: perfbench/tracer.py
# wraps them by these names.
from .greens import scattering_greens_numeric  # noqa: F401
from .quadrature import integrate  # noqa: F401
from .units import AtomModel, Transition

__all__ = [
    "ShiftBreakdown", "AsymptoticCase", "PopulationState", "NonresonantTerms",
    "greens_grid", "greens_tensor", "decay_rate", "resonant_shift",
    "nonresonant_shift", "nonresonant_shift_terms", "nonresonant_shift_grid",
    "total_shift", "self_consistent_shift", "asymptotic", "axion_difference",
    "evolve_populations",
]


# ---------------------------------------------------------------------------
# Green's tensor routing

def greens_grid(medium, z, omega,
                config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor at every height z[j] > 0, at one real omega or at
    omega = i*xi[j] aligned with z: the closed form for a medium that states
    a constant reflection matrix, the k-quadrature for every other medium.
    Any other omega is rejected on both routes (`greens._grid_omega`): the
    closed form alone would broadcast it."""
    r = getattr(medium, "constant_reflection", None)
    if r is None:
        return numeric_greens(z, omega, medium, config)
    g = closed_form_greens(z, omega, r)  # checks z and omega first, as the quadrature does
    _grid_omega(omega)
    return g


def greens_tensor(medium, z: float, omega: complex,
                  config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor at one point, as Python scalars (see greens_grid)."""
    return greens_grid(medium, [z], omega, config).point(0)


# ---------------------------------------------------------------------------
# Rates and shifts

def _tensor_quantities(g: PlanarTensors, transition: Transition) -> dict:
    """{"rate": Gamma^(1) = 2 w^2 Im s, "resonant_shift": dw_res = -w^2 Re s}
    from one sandwich s of the tensors g at the transition frequency w,
    under np.errstate: a value that is not finite raises QuadratureError
    with the first such height as its owner (`_finite`)."""
    w = transition.frequency
    with np.errstate(all="ignore"):
        s = g.sandwich(transition.dipole)
        return _finite({"rate": 2.0 * w ** 2 * s.imag, "resonant_shift": -w ** 2 * s.real})


def decay_rate(transition: Transition, z: float, medium,
               config: QuadratureConfig | None = None) -> float:
    """Body-induced decay rate Gamma^(1) at height z."""
    with np.errstate(all="ignore"):  # an overflow ends in _tensor_quantities' check
        g = greens_tensor(medium, z, transition.frequency, config)
    return float(_tensor_quantities(g, transition)["rate"])


def resonant_shift(transition: Transition, z: float, medium,
                   config: QuadratureConfig | None = None) -> float:
    """Resonant (real-photon) part of the frequency shift."""
    with np.errstate(all="ignore"):  # an overflow ends in _tensor_quantities' check
        g = greens_tensor(medium, z, transition.frequency, config)
    return float(_tensor_quantities(g, transition)["resonant_shift"])


@dataclass(frozen=True)
class NonresonantTerms:
    """The two addends of the Wick-rotated shift; total = im_term + re_term.

    im_term carries Im s(i xi) (nonzero only for nonreciprocal media),
    re_term carries -Re s(i xi) (the only survivor for reciprocal ones).
    Scalars for one height; arrays aligned with the heights from
    nonresonant_shift_grid.
    """

    im_term: float
    re_term: float
    quad_error: float = 0.0
    neval: int = 0

    @property
    def total(self) -> float:
        return self.im_term + self.re_term


_STEP, _TAYLOR, _NEAR, _FAR = 1.0 + 2.0 ** -10, 5, 2.0 ** -9, 2.0 ** 20
# the table's nodes b_j = 2 _STEP^j, j >= -_BELOW, start next to _NEAR
_BELOW = round(math.log(2.0 / _NEAR) / math.log(_STEP))


@functools.cache
def _moment_table():
    """(b_j = 2 _STEP^j from about _NEAR to past _FAR, B_m(b_j) for
    m = 3 ... 4 + _TAYLOR); _moments expands about b_j to degree _TAYLOR.

    From b = 2 up, B_m = m! b^-m Im e^z E_{m+1}(z) at z = -ib, the continued
    fraction of e^z E_{m+1}(z) summed backward from depth 6 + 250/b.  Below,
    where that depth grows as 1/b, B3 and B4 come from the series of
    `_series` and B5 ... B9 from the upward recurrence
    B_(n+2) = n!/b^(n+1) - B_n, whose subtraction is a small part of
    n!/b^(n+1) there (at most 28 % of it, next to b = 2)."""
    b = 2.0 * _STEP ** np.arange(-_BELOW, round(math.log(_FAR / 2.0) / math.log(_STEP)) + 2)
    low, up = b[:_BELOW], b[_BELOW:]
    m = np.arange(3.0, 5.0 + _TAYLOR)[:, None]
    depth = np.ceil(6.0 + 250.0 / up).astype(int)  # falls along b: live points are a prefix
    t = np.zeros((m.size, up.size), dtype=complex)
    for k in range(depth[0], 0, -1):
        n = np.count_nonzero(depth >= k)
        t[:, :n] = -k * (m + k) / (m + 1 + 2 * k - 1j * up[:n] + t[:, :n])
    m_factorial = np.cumprod(np.arange(1.0, 5.0 + _TAYLOR))[2:, None]
    upper = m_factorial * (1.0 / (m + 1 - 1j * up + t)).imag / up ** m
    del t  # the rows below 2 follow without it: the build's peak memory is the fraction's
    rows = _series(low, lower=False)
    for n in range(3, 3 + _TAYLOR):
        rows.append(math.factorial(n) / low ** (n + 1) - rows[n - 3])
    return b, np.concatenate([np.array(rows), upper], axis=1)


# Si(x)/x and Ci(x) - gamma - ln x as power series in x^2 (Abramowitz &
# Stegun 5.2.14, 5.2.16), highest power first; at x = 2 the last term is
# below 1e-24 of the sum.
_SICI_POWERS = np.arange(15, -1, -1)
_SICI_COEFFS = np.array([
    [(-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)),
     (-1) ** n / (2 * n * math.factorial(2 * n)) if n else 0.0]
    for n in _SICI_POWERS.tolist()])


def _sici(x):
    """(Si(x), Ci(x)) at every 0 < x < 2.  Both series are summed in one
    einsum over the powers, highest first, which rounds better than lowest
    first; it does not go through BLAS, so a point's value does not depend
    on the other points of its batch."""
    s = np.einsum("nk,kc->cn", (x * x)[:, None] ** _SICI_POWERS, _SICI_COEFFS)
    return x * s[0], np.euler_gamma + np.log(x) + s[1]


def _series(x, lower: bool):
    """[B0, ..., B4], or [B3, B4] with lower=False, at every 0 < x < 2:
    B0 = f(x), B1 = g(x), B2 = 1/x - f, B3 = 1/x^2 - g and
    B4 = 2/x^3 - 1/x + f, with f, g the auxiliary functions of the sine and
    cosine integrals (Abramowitz & Stegun 5.2), Si and Ci from their power
    series (`_sici`)."""
    si, ci = _sici(x)
    si, sin, cos = si - 0.5 * np.pi, np.sin(x), np.cos(x)
    cs, sc, cc, ss = ci * sin, si * cos, ci * cos, si * sin
    r = 1.0 / x
    upper = [1.0 / x ** 2 + cc + ss, 2.0 / x ** 3 - r + cs - sc]
    if not lower:
        return upper
    f = cs - sc
    return [f, -cc - ss, r - f] + upper


def _moments(b, lower: bool = True):
    """(B0, ..., B4) at every b > 0, B_n(b) = int_0^inf x^n e^{-bx}/(x^2+1) dx,
    or only (B3, B4), all the s-integral takes, with lower=False.

    Below b = 2 (`_series`), B0 ... B2 hold their digits, while the table
    (`_moment_table`) would give them by cancelling from B3 and B4; with
    lower=False the series serves only below _NEAR, where the table ends.
    From there, dB_n/db = -B_{n+1} gives Taylor terms of B3 and B4 about the
    nearest table node, falling by about 2^-11 each, and from _FAR on two
    terms of the asymptotic series suffice; all three hold to a few ulp, so
    no switch leaves a step.  From B3 and B4, x^n/(x^2+1) = x^(n-2) -
    x^(n-2)/(x^2+1) gives the downward recurrence B_n = n!/b^(n+1) -
    B_(n+2), which loses no digits above b = 2: each B_n is a small part of
    n!/b^(n+1).  A region without points is skipped: the s-integral calls
    this once per round on a few dozen, all in the table at every height
    from 2 w z = 2^-9 to about 2^8.
    """
    out = np.empty((5 if lower else 2,) + b.shape)
    near, far = b < (2.0 if lower else _NEAR), b >= _FAR
    nnear, nfar = np.count_nonzero(near), np.count_nonzero(far)
    if nnear:
        out[:, near] = _series(b[near], lower)
    if nnear + nfar < b.size:
        hi = ~(near | far) if nnear + nfar else slice(None)  # a view, not a gather
        x = b[hi]
        grid, table = _moment_table()
        j = np.rint(np.log(0.5 * x) * (1.0 / math.log(_STEP))).astype(int) + _BELOW
        h, rows = x - grid[j], table.take(j, axis=1)  # table[:, j], gathered faster
        acc = rows[_TAYLOR:].copy()
        for k in range(_TAYLOR - 1, -1, -1):
            acc *= h * (-1.0 / (k + 1))
            acc += rows[k:k + 2]
        if lower:
            b3, b4 = acc
            b2 = 2.0 / x ** 3 - b4
            acc = [1.0 / x - b2, 1.0 / x ** 2 - b3, b2, b3, b4]
        out[:, hi] = acc
    if nfar:
        r = 1.0 / b[far]  # its powers underflow where those of b would overflow
        r2 = r * r
        b3, b4 = (6.0 - 120.0 * r2) * r2 * r2, (24.0 - 720.0 * r2) * r2 * r2 * r
        b2 = 2.0 * r2 * r - b4
        out[:, far] = [r - b2, r2 - b3, b2, b3, b4] if lower else [b3, b4]
    return out


def _closed_form_nonresonant(r: ReflectionMatrix, dipole, a):
    """(int_1^inf Im P(s) B4(a s) ds, int_1^inf Re P(s) B3(a s) ds) at every
    a > 0, for a reflection matrix r that does not depend on s.

    The kernels are then polynomials in s, xx = r_ss - r_pp s^2,
    zz = 2 r_pp (1 - s^2) and xy = (r_sp + r_ps) s, and so is
    P = A xx + C zz + iB xy (`_dipole_weights`).  With
    int_1^inf P(s) e^{-l s} ds = e^{-l} [P(1)/l + P'(1)/l^2 + P''(1)/l^3]
    under the x-integral of B_n (l = a x), int_1^inf P(s) B_n(a s) ds
    = P(1) B_(n-1)/a + P'(1) B_(n-2)/a^2 + P''(1) B_(n-3)/a^3.
    """
    wa, wc, wb = _dipole_weights(dipole)
    ibx = 1j * wb * (r.r_sp + r.r_ps)
    pp = -2.0 * (wa + 2.0 * wc) * r.r_pp
    p = (wa * (r.r_ss - r.r_pp) + ibx, pp + ibx, pp)  # P(1), P'(1), P''(1)
    b0, b1, b2, b3, _ = _moments(a)
    # far up a ** 3 overflows to inf (from a ~ 6e102) and its terms to 0,
    # which their true values underflow to anyway (the caller evaluates
    # under np.errstate)
    return (p[0].imag * b3 / a + p[1].imag * b2 / a ** 2 + p[2].imag * b1 / a ** 3,
            p[0].real * b2 / a + p[1].real * b1 / a ** 2 + p[2].real * b0 / a ** 3)


def nonresonant_shift_grid(transition: Transition, z, medium,
                           config: QuadratureConfig | None = None) -> NonresonantTerms:
    """Both terms of the nonresonant shift at every height z[j] > 0.

    With k_perp = i s xi, s(i xi) = (xi/8 pi) int_1^inf ds e^{-2 s xi z}
    P(s), where P = A xx + C zz + iB xy contracts the kernels of `greens`
    (no weight) with the dipole's weights (`greens._dipole_weights`) and,
    the media being nondispersive, does not depend on xi; the s-integrand
    forms it from the reflection on real arguments (`_s_integral`).  The
    xi-integral done first (`_moments`) leaves, with b = 2 s w z,
        dw_nres = (w^3/8 pi^2) int_1^inf ds [Im P B4(b) - Re P B3(b)],
    over tau = 1/s in (0, 1] (ds = -dtau/tau^2) at rel_tol / 10
    (`xi_rel_tol`).  The integrand has two scales: tau ~ 1, over which P
    varies, and tau ~ 2 w z, below which B3 and B4 fall off.  So height j
    starts on the dyadic ladder (0, 2^-L, ..., 1/4, 1/2, 1) with
    L = max(4, 4 - round(log2 2 w z)), whose finest panel sits near
    tau = 2 w z / 16, and at most `quadrature.LEVELS_MAX` levels.  Only
    heights with 2 w z below about 2^-1018 reach that cap, far below where
    the integrand overflows (zeta ~ 1e-77 for the canonical transition), so
    they fail at their height either way.  Every height is one owner of one
    `integrate_batch` call, so a failure's `owner` is the height.  A medium
    that states a constant reflection matrix has P polynomial in s, and the
    s-integral in closed form instead (`_closed_form_nonresonant`).  Evaluation runs under
    np.errstate: a shift, im_term + re_term, that is not finite raises
    QuadratureError with the first such height as its owner.
    """
    z = _heights(z)
    cfg = config or DEFAULT_CONFIG
    w = transition.frequency
    pref = w ** 3 / (8 * math.pi ** 2)
    r = getattr(medium, "constant_reflection", None)
    with np.errstate(all="ignore"):
        scale = 2.0 * w * z  # b = scale * s
        if r is not None:
            im, re = _closed_form_nonresonant(r, transition.dipole, scale)
            errors, neval = np.zeros(z.size), np.zeros(z.size, dtype=int)
        else:
            values, errors, neval = _s_integral(transition, scale, medium, cfg)
            im, re = values.real, values.imag
        im_term, re_term = pref * im, -pref * re
        _finite({"nonresonant_shift": im_term + re_term})  # finite only if both terms are
    return NonresonantTerms(im_term=im_term, re_term=re_term, quad_error=pref * errors,
                            neval=neval)


def _s_integral(transition: Transition, scale, medium, cfg: QuadratureConfig):
    """int_0^1 dtau/tau^2 [Im P B4(b) + i Re P B3(b)], b = scale[j]/tau, at
    every height j, each on its own start ladder: one `integrate_batch` call.

    With s = 1/tau, the kernels are xx = r_ss - r_pp s^2,
    zz = 2 r_pp (1 - s^2) and xy = (r_sp + r_ps) s, from the reflection on
    real arguments, r(w, w s) = r(i w, i w s) (`media`), and
    P = A xx + C zz + iB xy with the dipole's weights
    (`greens._dipole_weights`)."""
    w = transition.frequency
    a, c, b = _dipole_weights(transition.dipole)
    ib = complex(0.0, b)

    def f(tau, owner):
        s = 1.0 / tau
        s2 = s * s
        r = medium.reflection(w, w / tau)
        xz = a * r.r_ss - r.r_pp * ((a + 2.0 * c) * s2 - 2.0 * c)  # A xx + C zz
        p = xz + (ib * s) * (r.r_sp + r.r_ps)
        b3, b4 = _moments(scale[owner] / tau, lower=False)
        # pack both real integrands into one complex quadrature pass
        return (p.imag * b4 + 1j * (p.real * b3)) * s2

    levels = (4.0 - np.rint(np.log2(scale))).clip(4, LEVELS_MAX).astype(int)
    return integrate_batch(f, np.zeros(scale.size), np.ones(scale.size),
                           rel_tol=cfg.xi_rel_tol, max_panels=cfg.max_panels,
                           levels=levels)


def _finite(quantities: dict) -> dict:
    """quantities, arrays over heights (0-d for one height), unless one is
    not finite at some height: then QuadratureError, as a quadrature failure
    raises, with the first such height as its owner."""
    finite = np.isfinite(list(quantities.values()))
    if np.logical_and.reduce(finite, axis=None):
        return quantities
    i = int(np.argmin(np.logical_and.reduce(finite)))
    raise QuadratureError(f"{' or '.join(quantities)} not finite at height {i}", owner=i)


def nonresonant_shift_terms(transition: Transition, z: float, medium,
                            config: QuadratureConfig | None = None) -> NonresonantTerms:
    """Both terms at one height: the N = 1 case of nonresonant_shift_grid."""
    t = nonresonant_shift_grid(transition, [z], medium, config)
    return NonresonantTerms(im_term=float(t.im_term[0]), re_term=float(t.re_term[0]),
                            quad_error=float(t.quad_error[0]), neval=int(t.neval[0]))


def nonresonant_shift(transition: Transition, z: float, medium,
                      config: QuadratureConfig | None = None) -> float:
    """Nonresonant (virtual-photon) part of the frequency shift."""
    return nonresonant_shift_terms(transition, z, medium, config).total


@dataclass(frozen=True)
class ShiftBreakdown:
    resonant: float
    nonresonant: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.resonant + self.nonresonant)


def total_shift(transition: Transition, z: float, medium,
                config: QuadratureConfig | None = None) -> ShiftBreakdown:
    """Resonant plus nonresonant shift at height z."""
    return ShiftBreakdown(
        resonant=resonant_shift(transition, z, medium, config),
        nonresonant=nonresonant_shift(transition, z, medium, config),
    )


def self_consistent_shift(transition: Transition, z: float, medium,
                          max_iter: int = 1, tol: float | None = None,
                          config: QuadratureConfig | None = None):
    """Fixed-point iteration w_tilde = w + dw(w_tilde).

    Returns (ShiftBreakdown at the final iterate, iterations used).  The
    default max_iter=1 is the one-shot evaluation at the bare frequency that
    every closed-form expression assumes.  If tol is given and the iteration
    does not settle within max_iter steps, raises RuntimeError.
    """
    _check_count("max_iter", max_iter, 1)
    if tol is not None:
        _check_positive("tol", tol)
    omega0 = transition.frequency
    w = omega0
    for it in range(1, max_iter + 1):
        breakdown = total_shift(replace(transition, frequency=w), z, medium, config)
        w_next = omega0 + breakdown.total
        if tol is not None and abs(w_next - w) < tol * omega0:
            return breakdown, it
        w = w_next
    if tol is not None:
        raise RuntimeError(
            f"shift iteration did not converge in {max_iter} steps "
            f"(last update {abs(w_next - w):.3e}, tol {tol * omega0:.3e})")
    return breakdown, max_iter


# ---------------------------------------------------------------------------
# Asymptotic catalog

@dataclass(frozen=True)
class AsymptoticCase:
    """(regime, medium, quantity) selector for the closed-form limit laws."""

    regime: str
    medium: object
    quantity: str

    def __post_init__(self):
        if self.regime not in ("retarded", "nonretarded"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.quantity not in ("rate", "resonant_shift", "nonresonant_shift"):
            raise ValueError(f"unknown quantity {self.quantity!r}")


def _first_order_axion(medium) -> bool:
    """An axion half-space with O(Delta^2) diagonal channels: the pure axion
    (epsilon = 1), and r(theta) - r(0) (`media._AxionDifference`)."""
    return isinstance(medium, _AxionDifference) or (
        isinstance(medium, AxionMedium) and medium.epsilon == 1)


def _limit_reflection(medium, regime: str) -> ReflectionMatrix:
    """The coefficients a limit law inserts: the medium's own far- or
    near-field constants, except for a first-order axion medium, whose laws
    are quoted to leading order in Delta.  It inserts only its first-order
    cross coefficient, -2 Delta/(1 + n)^2 retarded and -Delta/(eps + 1)
    nonretarded (both -Delta/2 at eps = 1): its Delta^2 diagonal z^-3 terms
    would otherwise overtake the Delta z^-2 cross term at contact."""
    if _first_order_axion(medium):
        eps, dlt = medium.epsilon, medium.delta
        x = (-2.0 * dlt / (1.0 + math.sqrt(eps)) ** 2 if regime == "retarded"
             else -dlt / (eps + 1.0))
        return ReflectionMatrix(0.0, x, x, 0.0)
    if regime == "retarded":
        return retarded_limit_coefficients(medium)
    return nonretarded_limit_coefficients(medium)


def asymptotic(case: AsymptoticCase, transition: Transition, z: float) -> float:
    """Closed-form limit law for the requested (regime, medium, quantity).

    Every entry inserts the coefficients r of `_limit_reflection`, each
    weighed as in s = A xx + C zz + iB xy (`greens._dipole_weights`), so
    the laws hold for any dipole: r_pp with A in the 1/z oscillation of the
    retarded rate and resonant shift, A + C in the retarded nonresonant
    shift and A + 2C near contact, r_sp = r_ps with -B.  The nonresonant
    laws, (A + C) r_pp/(16 pi^2 w z^4) + B r_sp/(16 pi^2 w^2 z^5) and
    (A + 2C) r_pp/(64 pi z^3) + B r_sp/(16 pi^2 z^3), are stated for the
    ideal mirrors, and nonretarded also for the first-order axion media.
    The mirrors' nonretarded rate is their contact limit: for the conductor
    Gamma0 (C - A)/(A + C), for the nonreciprocal mirror 0.

    What the computed values approach as zeta -> 0: the mirrors' laws to
    2 % at zeta = 0.01, the pure axion's nonresonant shift 0.987x (1.001x
    at 1e-3).  A first-order axion medium's nonretarded rate law is a
    formal insertion: the rate of r(theta) - r(0) at eps = 16 is -0.2 % of
    it at zeta = 0.01.  At eps != 1 its nonresonant law is the quasi-static
    insertion, but the s-integral weights s ~ 1 (B4(b) ~ 2/b^3 for b << 1),
    where dr_sp is -0.080 Delta against -Delta/17 at s -> inf for eps = 16:
    the shift reads 1.221x the law at zeta = 0.01 and 1.235x at 1e-3
    (1.048x, 1.062x at eps = 4).  The laws also need Delta << zeta: the
    resonant shift reads 0.976x at zeta = 0.01 but 0.785x at 1e-3.
    """
    _heights(z)
    m, regime = case.medium, case.regime
    w = transition.frequency
    a, c, b = _dipole_weights(transition.dipole)
    zeta = w * z
    nres, rate = case.quantity == "nonresonant_shift", case.quantity == "rate"
    if nres and not (isinstance(m, (PerfectConductor, PerfectNonreciprocalMirror))
                     or (regime == "nonretarded" and _first_order_axion(m))):
        raise ValueError(f"no {regime} nonresonant law for {m!r}")
    r = _limit_reflection(m, regime)
    # r_pp's weight
    pp = a + 2.0 * c if regime == "nonretarded" else (a + c if nres else a)
    if nres:
        if regime == "retarded":
            return (pp * r.r_pp / (16 * math.pi ** 2 * w * z ** 4)
                    + b * r.r_sp / (16 * math.pi ** 2 * w ** 2 * z ** 5))
        return (pp * r.r_pp / (64 * math.pi * z ** 3)
                + b * r.r_sp / (16 * math.pi ** 2 * z ** 3))
    if rate and regime == "nonretarded":
        if isinstance(m, PerfectConductor):
            return w ** 3 * (c - a) / (3 * math.pi)
        if isinstance(m, PerfectNonreciprocalMirror):
            return 0.0
    # w^2 times each term's weight over 4 pi (rate) or 8 pi (resonant shift)
    upp, usp = (w ** 2 * v / ((4 if rate else 8) * math.pi) for v in (pp, -b))
    if regime == "retarded":
        sin, cos = math.sin(2 * zeta), math.cos(2 * zeta)
        tpp, tsp = (-sin, -cos) if rate else (cos, -sin)
        return upp / z * (tpp * r.r_pp) + usp / z * (tsp * r.r_sp)
    sign = 1.0 if rate else -1.0
    return (upp * (sign / (4 * w ** 2 * z ** 3) * r.r_pp)
            + usp * (sign / (2 * w * z ** 2) * r.r_sp))


def axion_difference(quantity: str, regime: str, epsilon: float, theta: float,
                     z: float, transition: Transition) -> float:
    """With-minus-without-axion limit law (Delta << 1): `asymptotic` of the
    medium r(theta) - r(0) (`media._AxionDifference`), whose cross
    coefficient to first order in Delta is -2 Delta/(1 + n)^2 retarded and
    -Delta/(eps + 1) nonretarded; the medium checks epsilon and theta.  The
    `asymptotic` docstring states which computed values these laws approach.
    """
    medium = _AxionDifference(epsilon=epsilon, theta=theta)
    return asymptotic(AsymptoticCase(regime, medium, quantity), transition, z)


# ---------------------------------------------------------------------------
# Diagonal population dynamics

@dataclass(frozen=True, eq=False)
class PopulationState:
    """Level populations: nonnegative, summing to at most one."""

    populations: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("populations must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p) & (p >= 0)):
            raise ValueError(f"populations must be finite and nonnegative, got {p}")
        if p.sum() > 1.0 + 1e-9:
            raise ValueError(f"populations sum to {p.sum()} > 1")
        object.__setattr__(self, "populations", p)

    @classmethod
    def excited(cls, num_levels: int, level: int | None = None) -> "PopulationState":
        p = np.zeros(num_levels)
        p[num_levels - 1 if level is None else level] = 1.0
        return cls(p)


def _rate_table(rate_matrix, num_levels: int) -> dict:
    """Normalize a {(upper, lower): rate} dict or square array to a dict."""
    if isinstance(rate_matrix, dict):
        items = rate_matrix.items()
    else:
        arr = np.asarray(rate_matrix, dtype=float)
        if arr.shape != (num_levels, num_levels):
            raise ValueError(f"rate matrix must be {num_levels}x{num_levels}, "
                             f"got {arr.shape}")
        if np.any(arr[np.triu_indices(num_levels)] != 0):
            raise ValueError("upward or diagonal rate entries must be absent; "
                             "only Gamma[n, k] with n > k is allowed")
        items = [((n, k), arr[n, k]) for n in range(num_levels)
                 for k in range(n)]
    table = {}
    for (n, k), rate in items:
        if not (0 <= k < n < num_levels):
            raise ValueError(f"transition ({n}, {k}) is not downward within "
                             f"{num_levels} levels; upward entries are rejected")
        if not math.isfinite(rate):
            raise ValueError(f"non-finite rate {rate} for transition ({n}, {k})")
        if rate < 0:
            raise ValueError(f"negative total rate {rate} for transition "
                             f"({n}, {k}); body-induced part exceeds free space")
        table[(n, k)] = float(rate)
    return table


def evolve_populations(atom: AtomModel, rate_matrix, t_grid,
                       initial: PopulationState | np.ndarray | None = None) -> np.ndarray:
    """Solve dp_n/dt = -Gamma_n p_n + sum_{k>n} Gamma_kn p_k exactly.

    rate_matrix maps downward transitions (upper, lower) -> total rate >= 0
    (dict, or square array filled on the strict lower triangle).  Returns the
    trajectory as an array of shape (len(t_grid), num_levels); row i is the
    population vector at t_grid[i], exp(A (t_i - t_0)) p_0 for the constant
    triangular generator A.  Default initial state: topmost level.
    """
    t = np.asarray(t_grid, dtype=float)
    if (t.ndim != 1 or t.size < 1 or not np.all(np.isfinite(t))
            or np.any(np.diff(t) <= 0)):
        raise ValueError(f"t_grid must be finite and strictly increasing, got {t}")
    nlev = atom.num_levels
    table = _rate_table(rate_matrix, nlev)

    gen = np.zeros((nlev, nlev))
    for (n, k), rate in table.items():
        gen[n, n] -= rate
        gen[k, n] += rate

    if initial is None:
        state = PopulationState.excited(nlev)
    elif isinstance(initial, PopulationState):
        state = initial
    else:
        state = PopulationState(np.asarray(initial, dtype=float))
    if state.populations.size != nlev:
        raise ValueError(f"initial state has {state.populations.size} entries, "
                         f"atom has {nlev} levels")

    return np.array([_expm_triangular(gen * (ti - t[0])) @ state.populations
                     for ti in t])


def _expm_triangular(a):
    """exp(a) of a triangular matrix by scaling and squaring (Higham 2005):
    a degree-18 Taylor polynomial of a / 2^s with 1-norm below 1, whose
    remainder is below 1/19! < 1e-17, squared s times.  Each square gets
    its exact diagonal exp(a_ii / 2^j), which squaring alone would carry
    with its rounding amplified 2^s times (Al-Mohy & Higham 2009)."""
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1])
    x, one = a / 2.0 ** s, np.eye(len(a))
    e = one
    for k in range(18, 0, -1):
        e = one + (x @ e) / k
    for j in range(s - 1, -1, -1):
        e = e @ e
        np.fill_diagonal(e, np.exp(np.diag(a) / 2.0 ** j))
    return e
