"""Decay rates, Casimir-Polder shifts, asymptotic laws, population dynamics.

Conventions (scalar sandwich s(omega) = d . G^(1)(z, z, omega) . conj(d)):

    Gamma^(1)   = (2 mu0/hbar) w^2 Im s(w)
    dw_res      = -(mu0/hbar) w^2 Re s(w)
    dw_nres     = (mu0/pi hbar) int dxi xi^3/(xi^2+w^2) Im s(i xi)
                  - (mu0/pi hbar) int dxi xi^2 w/(xi^2+w^2) Re s(i xi)

with w the (possibly shifted) transition frequency.  Every tensor comes
from `greens_grid`, the one place that chooses between the ideal mirrors'
closed forms and the numeric k-quadrature; it takes an array of heights
and returns a `greens.PlanarTensors`, whose `sandwich` gives s.  Scans
call it for the real-axis tensors of all heights at once, and
`nonresonant_shift_grid` runs the xi-integrals of all heights as owners of
one lockstep quadrature, each round handing all of its new xi nodes to one
`greens_grid` call.  The one-height functions are their N = 1 cases, so a
grid value equals the one-height value bit for bit.  The xi integral is
evaluated on xi = (c/2z) u, u in (0, u_max], which maps the e^{-2 xi z/c}
damping to e^{-u} uniformly in z (tail beyond u_max=50 is ~2e-22 relative).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from .constants import Constants, SCALED
from .greens import (PlanarTensors, _heights, greens_nonreciprocal_mirror,
                     greens_perfect_conductor, numeric_greens)
from .media import (AxionMedium, PerfectConductor, PerfectNonreciprocalMirror,
                    delta as axion_delta, nonretarded_limit_coefficients,
                    retarded_limit_coefficients)
from .quadrature import QuadratureConfig, integrate_batch
# not called here but importable from this module: perfbench/tracer.py
# wraps them by these names.
from .greens import scattering_greens_numeric  # noqa: F401
from .quadrature import integrate  # noqa: F401
from .units import AtomModel, Transition, free_space_rate_formula

__all__ = [
    "ShiftBreakdown", "AsymptoticCase", "PopulationState", "NonresonantTerms",
    "greens_grid", "greens_tensor", "decay_rate", "resonant_shift",
    "nonresonant_shift", "nonresonant_shift_terms", "nonresonant_shift_grid",
    "total_shift", "self_consistent_shift", "asymptotic", "axion_difference",
    "evolve_populations",
]


# ---------------------------------------------------------------------------
# Green's tensor routing

def greens_grid(medium, z, omega, constants: Constants = SCALED,
                config: QuadratureConfig | None = None,
                method: str = "auto") -> PlanarTensors:
    """Scattering tensor at every height z[j] > 0, at one real omega or at
    omega = i*xi[j] aligned with z.

    method "auto" takes the closed form of an ideal mirror and the
    k-quadrature for every other medium; "closed" insists on the closed
    form (ValueError where there is none), "numeric" on quadrature.
    """
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"method must be 'auto', 'closed' or 'numeric', got {method!r}")
    if method != "numeric" and isinstance(medium, PerfectConductor):
        return greens_perfect_conductor(z, omega, constants)
    if method != "numeric" and isinstance(medium, PerfectNonreciprocalMirror):
        return greens_nonreciprocal_mirror(z, omega, medium.sign, constants)
    if method == "closed":
        raise ValueError(f"no closed-form tensor for {type(medium).__name__}")
    return numeric_greens(z, omega, medium, constants, config)


def greens_tensor(medium, z: float, omega: complex,
                  constants: Constants = SCALED,
                  config: QuadratureConfig | None = None,
                  method: str = "auto") -> PlanarTensors:
    """Scattering tensor at one point, as Python scalars (see greens_grid)."""
    return greens_grid(medium, [z], omega, constants, config, method).point(0)


# ---------------------------------------------------------------------------
# Rates and shifts

def decay_rate(transition: Transition, z: float, medium,
               constants: Constants = SCALED,
               config: QuadratureConfig | None = None,
               method: str = "auto") -> float:
    """Body-induced decay rate Gamma^(1) at height z."""
    w = transition.frequency
    s = greens_tensor(medium, z, w, constants, config, method).sandwich(transition.dipole)
    return float(2.0 * constants.mu0 / constants.hbar * w ** 2 * s.imag)


def resonant_shift(transition: Transition, z: float, medium,
                   constants: Constants = SCALED,
                   config: QuadratureConfig | None = None,
                   method: str = "auto") -> float:
    """Resonant (real-photon) part of the frequency shift."""
    w = transition.frequency
    s = greens_tensor(medium, z, w, constants, config, method).sandwich(transition.dipole)
    return float(-constants.mu0 / constants.hbar * w ** 2 * s.real)


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


def nonresonant_shift_grid(transition: Transition, z, medium,
                           constants: Constants = SCALED,
                           config: QuadratureConfig | None = None,
                           method: str = "auto") -> NonresonantTerms:
    """Both xi-integral terms at every height z[j] > 0, in one lockstep call.

    The xi-integral of height j is owner j of one `integrate_batch`; every
    round hands the xi nodes of all heights to one `greens_grid` call.
    Returns NonresonantTerms whose fields are arrays aligned with z; a
    failure's `owner` is the index j.
    """
    z = _heights(z)
    cfg = config or QuadratureConfig()
    w = transition.frequency
    n = z.size
    scale = constants.c / (2.0 * z)  # xi = scale * u
    inner_err = np.zeros(n)
    inner_neval = np.zeros(n, dtype=int)

    def f(u, owner):
        xi = scale[owner] * u
        g = greens_grid(medium, z[owner], 1j * xi, constants, cfg, method)
        # an owner with a single panel (15 nodes) is (re)starting
        restart = np.bincount(owner, minlength=n) == 15
        inner_err[restart] = 0.0
        inner_neval[restart] = 0
        inner_err[:] += np.bincount(owner, weights=g.quad_error, minlength=n)
        np.add.at(inner_neval, owner, g.neval)
        s = g.sandwich(transition.dipole)
        w_im = xi ** 3 / (xi ** 2 + w ** 2)
        w_re = xi ** 2 * w / (xi ** 2 + w ** 2)
        # pack both real integrands into one complex quadrature pass
        return w_im * s.imag + 1j * (w_re * s.real)

    values, errors, neval = integrate_batch(
        f, np.zeros(n), np.full(n, cfg.xi_cutoff), rel_tol=cfg.xi_rel_tol,
        abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    pref = constants.mu0 / (math.pi * constants.hbar) * scale
    return NonresonantTerms(im_term=pref * values.real, re_term=-pref * values.imag,
                            quad_error=pref * errors + inner_err,
                            neval=neval + inner_neval)


def nonresonant_shift_terms(transition: Transition, z: float, medium,
                            constants: Constants = SCALED,
                            config: QuadratureConfig | None = None,
                            method: str = "auto") -> NonresonantTerms:
    """Both xi-integral terms of the nonresonant shift, separately.

    The one-height case of nonresonant_shift_grid.
    """
    t = nonresonant_shift_grid(transition, [z], medium, constants, config, method)
    return NonresonantTerms(im_term=float(t.im_term[0]), re_term=float(t.re_term[0]),
                            quad_error=float(t.quad_error[0]), neval=int(t.neval[0]))


def nonresonant_shift(transition: Transition, z: float, medium,
                      constants: Constants = SCALED,
                      config: QuadratureConfig | None = None,
                      method: str = "auto") -> float:
    """Nonresonant (virtual-photon) part of the frequency shift."""
    return nonresonant_shift_terms(transition, z, medium, constants, config,
                                   method).total


@dataclass(frozen=True)
class ShiftBreakdown:
    resonant: float
    nonresonant: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.resonant + self.nonresonant)


def total_shift(transition: Transition, z: float, medium,
                constants: Constants = SCALED,
                config: QuadratureConfig | None = None,
                method: str = "auto") -> ShiftBreakdown:
    """Resonant plus nonresonant shift at height z."""
    return ShiftBreakdown(
        resonant=resonant_shift(transition, z, medium, constants, config, method),
        nonresonant=nonresonant_shift(transition, z, medium, constants, config, method),
    )


def self_consistent_shift(transition: Transition, z: float, medium,
                          max_iter: int = 1, tol: float | None = None,
                          constants: Constants = SCALED,
                          config: QuadratureConfig | None = None,
                          method: str = "auto"):
    """Fixed-point iteration w_tilde = w + dw(w_tilde).

    Returns (ShiftBreakdown at the final iterate, iterations used).  The
    default max_iter=1 is the one-shot evaluation at the bare frequency that
    every closed-form expression assumes.  If tol is given and the iteration
    does not settle within max_iter steps, raises RuntimeError.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    omega0 = transition.frequency
    w = omega0
    breakdown = None
    for it in range(1, max_iter + 1):
        breakdown = total_shift(replace(transition, frequency=w), z, medium,
                                constants, config, method)
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


def asymptotic(case: AsymptoticCase, transition: Transition, z: float,
               constants: Constants = SCALED) -> float:
    """Closed-form limit law for the requested (regime, medium, quantity).

    Retarded rate/shift entries insert the far-field constant coefficients
    into the leading 1/z oscillation; nonretarded resonant-shift entries
    insert the near-field constants into the z^-2/z^-3 terms.  The
    nonretarded *rate* entry is the stated contact limit for the ideal
    mirrors (a constant -Gamma0, resp. 0) but the formal coefficient
    insertion for the axion medium, which is how its limit laws are quoted;
    the true rate stays finite there.  Nonresonant entries exist for both
    mirrors (both regimes) and for the pure-axion medium (nonretarded).
    """
    m = case.medium
    w = transition.frequency
    d2 = transition.dipole_squared
    cc, mu0, hbar, eps0 = constants.c, constants.mu0, constants.hbar, constants.eps0
    zeta = w * z / cc
    gunit = mu0 * w ** 2 * d2 / (4 * math.pi * hbar)
    ounit = mu0 * w ** 2 * d2 / (8 * math.pi * hbar)
    pure_axion = (isinstance(m, AxionMedium)
                  and m.epsilon == 1.0 and m.mu == 1.0)

    def limit_coeffs(regime):
        # The pure-axion laws are quoted to leading order in Delta (the
        # "Delta/2 factor"): the Delta^2 diagonal channels are dropped, which
        # matters because their z^-3 term would otherwise overtake the
        # Delta z^-2 cross term at contact.
        if pure_axion:
            class _Lead:  # noqa: N801 - tiny local record
                r_pp = 0.0
                r_sp = -m.delta / 2.0
            return _Lead
        return (retarded_limit_coefficients(m) if regime == "retarded"
                else nonretarded_limit_coefficients(m))

    if case.quantity == "nonresonant_shift":
        if case.regime == "retarded":
            if isinstance(m, PerfectConductor):
                return d2 * cc / (16 * math.pi ** 2 * eps0 * hbar * w * z ** 4)
            if isinstance(m, PerfectNonreciprocalMirror):
                return -m.sign * d2 * cc ** 2 / (16 * math.pi ** 2 * eps0 * hbar * w ** 2 * z ** 5)
            raise ValueError("no retarded nonresonant law for the axion medium "
                             "(the resonant part dominates there)")
        if isinstance(m, PerfectConductor):
            return d2 / (64 * math.pi * eps0 * hbar * z ** 3)
        if isinstance(m, PerfectNonreciprocalMirror):
            return -m.sign * d2 / (16 * math.pi ** 2 * eps0 * hbar * z ** 3)
        if pure_axion:
            return (m.delta / 2.0) * d2 / (16 * math.pi ** 2 * eps0 * hbar * z ** 3)
        raise ValueError("nonretarded nonresonant law only stated for the "
                         "pure-axion medium (dispersive eps(i xi) unknown)")

    if case.regime == "retarded":
        rc = limit_coeffs("retarded")
        if case.quantity == "rate":
            return gunit / z * (-math.sin(2 * zeta) * rc.r_pp
                                - math.cos(2 * zeta) * rc.r_sp)
        return ounit / z * (math.cos(2 * zeta) * rc.r_pp
                            - math.sin(2 * zeta) * rc.r_sp)

    # nonretarded
    nc = limit_coeffs("nonretarded")
    if case.quantity == "rate":
        if isinstance(m, PerfectConductor):
            return -free_space_rate_formula(transition, constants)
        if isinstance(m, PerfectNonreciprocalMirror):
            return 0.0
        return gunit * (cc / (2 * w * z ** 2) * nc.r_sp
                        + cc ** 2 / (4 * w ** 2 * z ** 3) * nc.r_pp)
    return ounit * (-cc / (2 * w * z ** 2) * nc.r_sp
                    - cc ** 2 / (4 * w ** 2 * z ** 3) * nc.r_pp)


def axion_difference(quantity: str, regime: str, epsilon: float, theta: float,
                     z: float, transition: Transition,
                     constants: Constants = SCALED) -> float:
    """Closed-form with-minus-without-axion difference laws (Delta << 1).

    retarded:     factor 2*Delta/(1+n)^2 on the mirror-type oscillation
    nonretarded:  factor Delta/(eps+1) on the z^-2 terms, and
                  d^2 Delta/(16 pi^2 eps0 hbar z^3 (eps+1)) for the
                  nonresonant shift
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if regime not in ("retarded", "nonretarded"):
        raise ValueError(f"unknown regime {regime!r}")
    dlt = axion_delta(0.0, theta)
    w = transition.frequency
    d2 = transition.dipole_squared
    cc, mu0, hbar, eps0 = constants.c, constants.mu0, constants.hbar, constants.eps0
    zeta = w * z / cc
    if regime == "retarded":
        factor = 2.0 * dlt / (1.0 + math.sqrt(epsilon)) ** 2
        if quantity == "rate":
            return mu0 * w ** 2 * d2 / (4 * math.pi * hbar * z) * math.cos(2 * zeta) * factor
        if quantity == "resonant_shift":
            return mu0 * w ** 2 * d2 / (8 * math.pi * hbar * z) * math.sin(2 * zeta) * factor
        raise ValueError("retarded nonresonant difference is not a stated law")
    factor = dlt / (epsilon + 1.0)
    if quantity == "rate":
        return -mu0 * w * d2 * cc / (8 * math.pi * hbar * z ** 2) * factor
    if quantity == "resonant_shift":
        return mu0 * w * d2 * cc / (16 * math.pi * hbar * z ** 2) * factor
    if quantity == "nonresonant_shift":
        return d2 / (16 * math.pi ** 2 * eps0 * hbar * z ** 3) * factor
    raise ValueError(f"unknown quantity {quantity!r}")


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
        if np.any(p < 0):
            raise ValueError(f"negative population in {p}")
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
        if rate < 0:
            raise ValueError(f"negative total rate {rate} for transition "
                             f"({n}, {k}); body-induced part exceeds free space")
        table[(n, k)] = float(rate)
    return table


def evolve_populations(atom: AtomModel, rate_matrix, t_grid,
                       initial: PopulationState | np.ndarray | None = None) -> np.ndarray:
    """Integrate dp_n/dt = -Gamma_n p_n + sum_{k>n} Gamma_kn p_k.

    rate_matrix maps downward transitions (upper, lower) -> total rate >= 0
    (dict, or square array filled on the strict lower triangle).  Returns the
    trajectory as an array of shape (len(t_grid), num_levels); row i is the
    population vector at t_grid[i].  Default initial state: topmost level.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
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

    sol = solve_ivp(lambda _, p: gen @ p, (t[0], t[-1]), state.populations,
                    t_eval=t, method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"population integration failed: {sol.message}")
    return sol.y.T
