"""Reflection models for the lower half-space.

Three media are supported: a perfect electric conductor, a perfect
nonreciprocal mirror (pure s<->p conversion with a fixed sign), and a
nonmagnetic half-space with permittivity epsilon plus an axion
magneto-electric coupling theta.  Medium 1 (where the atom sits) is always
vacuum.  Frequencies and wavenumbers are in the package's units, c = hbar =
mu0 = eps0 = 1.

A reflection matrix is evaluated at a frequency and at the vacuum
wavenumber k_perp = sqrt(omega^2 - k_par^2) of the atom's side (Im >= 0,
so that e^{i k_perp z} decays for z > 0), the variable the k-plane
quadrature integrates over; the medium's own k_2 follows from it, and
k_par need not be formed.  Evaluations are vectorized over k_perp and
accept real frequencies as well as purely imaginary omega = i*xi, either
one omega for all nodes or an array of omega aligned with them.  Every
medium here is nondispersive, r(i lambda xi, lambda k_perp) = r(i xi,
k_perp) for lambda > 0; `atomics.nonresonant_shift_grid` relies on this.

Each medium also states its `constant_reflection`: the reflection matrix
if it depends neither on k_par nor on omega (the two ideal mirrors, the
constant test medium, and the axion half-space at epsilon = 1), else None.
`atomics` takes closed forms for those and the k-quadrature for the others.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .constants import ALPHA_FS

__all__ = [
    "ReflectionMatrix", "PoleError",
    "PerfectConductor", "PerfectNonreciprocalMirror", "AxionMedium", "EPSILON_MAX",
    "ConstantReflectionMedium", "delta",
    "retarded_limit_coefficients", "nonretarded_limit_coefficients",
]


class PoleError(ArithmeticError):
    """Shared reflection denominator vanished on the integration path.

    `owner` is the flat index of the offending k_perp node (None where that
    is not known); a batched quadrature maps it to the integral it serves.
    """

    def __init__(self, message, owner=None):
        super().__init__(message)
        self.owner = owner


@dataclass(frozen=True, eq=False)
class ReflectionMatrix:
    """2x2 reflection coefficients r[outgoing][incoming].

    Entries may be scalars or ndarrays (vectorized over k_perp).
    """

    r_ss: complex
    r_sp: complex
    r_ps: complex
    r_pp: complex


def delta(theta1: float, theta2: float) -> float:
    """Dimensionless axion mismatch alpha*(theta2 - theta1)/pi."""
    return ALPHA_FS * (theta2 - theta1) / math.pi


class _ConstantReflection:
    """A medium whose reflection matrix is its `constant_reflection` at
    every (omega, k_perp)."""

    def reflection(self, omega, k_perp) -> ReflectionMatrix:
        shape = np.shape(k_perp)
        one = np.ones(shape) if shape else 1.0
        r = self.constant_reflection
        return ReflectionMatrix(*(v * one for v in (r.r_ss, r.r_sp, r.r_ps, r.r_pp)))


@dataclass(frozen=True)
class PerfectConductor(_ConstantReflection):
    """r_ss = -1, r_pp = +1, no polarization mixing."""

    @property
    def constant_reflection(self) -> ReflectionMatrix:
        return ReflectionMatrix(r_ss=-1.0, r_sp=0.0, r_ps=0.0, r_pp=1.0)


@dataclass(frozen=True)
class PerfectNonreciprocalMirror(_ConstantReflection):
    """Pure conversion mirror: r_ss = r_pp = 0, r_sp = r_ps = sign."""

    sign: float = -1.0

    def __post_init__(self):
        if isinstance(self.sign, (bool, np.bool_)) or self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def constant_reflection(self) -> ReflectionMatrix:
        return ReflectionMatrix(r_ss=0.0, r_sp=self.sign, r_ps=self.sign, r_pp=0.0)


# The largest epsilon of an axion half-space.  Its reflection's products
# overflow near epsilon = 1.6e201, and long before that the tensor has its
# epsilon -> infinity value: at zeta = 0.05, on either frequency axis, it
# reads the same at 1e100 and 1e200 to 4e-16 of its largest entry.
EPSILON_MAX = 1e100


@dataclass(frozen=True)
class AxionMedium:
    """Nonmagnetic half-space with permittivity epsilon and axion coupling theta.

    Medium 1 is vacuum (eps_1 = 1, theta_1 = 0, n_1 = 1).  The cross
    coefficients carry Delta = alpha*theta/pi.  The Fresnel weights are
    those of a nonmagnetic medium: `mu` is init-only, for callers that
    state it, and must be 1; it is no field, so no config key or flag.
    epsilon must be positive and at most EPSILON_MAX, theta finite.
    Nondispersive (constant eps) by construction.  theta is marked as an
    angle (radians), so text input may also give it as a pi-multiple.
    """

    epsilon: float = 1.0
    mu: InitVar[float] = 1.0
    theta: float = field(default=math.pi, metadata={"angle": True})
    delta: float = field(init=False)

    def __post_init__(self, mu):
        # a bool is no number here: True would read as epsilon or theta = 1
        eps, theta = self.epsilon, self.theta
        if isinstance(eps, (bool, np.bool_)) or not 0 < eps <= EPSILON_MAX:
            raise ValueError(f"epsilon must be positive and at most {EPSILON_MAX:g}, "
                             f"got {eps}")
        if mu != 1:
            raise ValueError(f"mu must be 1 (the Fresnel weights are those of a "
                             f"nonmagnetic medium), got {mu}")
        if isinstance(theta, (bool, np.bool_)) or not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        object.__setattr__(self, "delta", delta(0.0, self.theta))

    @property
    def constant_reflection(self) -> ReflectionMatrix | None:
        """At epsilon = 1, k_2 = k_1 cancels from every coefficient, which
        are then r_ss = -r_pp = -Delta^2/(4 + Delta^2) and
        r_sp = r_ps = -2 Delta/(4 + Delta^2); at any other epsilon they
        depend on k_par, and there is no constant matrix (None)."""
        if self.epsilon != 1:
            return None
        den = 4.0 + self.delta ** 2
        x = -2.0 * self.delta / den
        return ReflectionMatrix(r_ss=-self.delta ** 2 / den, r_sp=x, r_ps=x,
                                r_pp=self.delta ** 2 / den)

    def _fresnel(self, omega, k_perp):
        """(k1, k2, k1 + k2, eps k1 + k2, mix = k1 k2 Delta^2, 1/D, r_sp) at
        k1 = k_perp, with k2 = sqrt(k1^2 + (eps - 1) omega^2), Im k2 >= 0."""
        k1 = np.asarray(k_perp, dtype=complex)[()]
        k2 = np.sqrt(k1 * k1 + (self.epsilon - 1.0) * omega ** 2)
        # on the imaginary axis the radicand is real and negative, and a -0j
        # imaginary part puts np.sqrt of it on the wrong side of the cut
        k2 = np.where(k2.imag < 0, -k2, k2)[()]
        k12 = k1 * k2
        mix = k12 * self.delta ** 2
        s, es = k1 + k2, self.epsilon * k1 + k2
        den = s * es + mix
        if not np.logical_and.reduce(den, axis=None):  # some den == 0
            i = int(np.flatnonzero(den == 0)[0])
            w, k = (np.broadcast_to(v, den.shape).flat[i] for v in (omega, k1))
            raise PoleError(f"reflection pole at omega={w}, k_perp={k}", owner=i)
        inv = 1.0 / den
        return k1, k2, s, es, mix, inv, (-2.0 * self.delta) * k12 * inv

    def reflection(self, omega, k_perp) -> ReflectionMatrix:
        """The coefficients at vacuum wavenumber k1 = k_perp (`_fresnel`).
        k1 - k2 = -(eps - 1) omega^2/(k1 + k2) and eps k1 - k2 =
        (eps - 1) k1 + (k1 - k2) carry no cancellation, so the coefficients
        keep their relative accuracy as epsilon -> 1, where they vanish with
        eps - 1 (and are exactly the constant ones at 1)."""
        k1, _, s, es, mix, inv, r_x = self._fresnel(omega, k_perp)
        dk = -((self.epsilon - 1.0) * omega ** 2) / s  # k1 - k2
        r_ss = (dk * es - mix) * inv
        r_pp = (((self.epsilon - 1.0) * k1 + dk) * s + mix) * inv
        return ReflectionMatrix(r_ss=r_ss, r_sp=r_x, r_ps=r_x, r_pp=r_pp)


class _AxionDifference(AxionMedium):
    """r(theta) - r(0): the reflection of the figures' with-minus-without-axion
    traces (`scan`), with nothing cancelling.  With D = (k1 + k2)(eps k1 + k2)
    + mix, dr_ss = -2 k1 mix/(D (k1 + k2)), dr_pp = 2 k2 mix/(D (eps k1 + k2))
    and dr_sp = dr_ps = r_sp (`_fresnel`); r(0) vanishes at epsilon = 1."""

    def reflection(self, omega, k_perp) -> ReflectionMatrix:
        k1, k2, s, es, mix, inv, r_x = self._fresnel(omega, k_perp)
        return ReflectionMatrix(r_ss=-2.0 * k1 * mix * inv / s, r_sp=r_x, r_ps=r_x,
                                r_pp=2.0 * k2 * mix * inv / es)


@dataclass(frozen=True)
class ConstantReflectionMedium(_ConstantReflection):
    """Fixed coefficients at every (omega, k_perp); single-channel test medium."""

    r_ss: complex = 0.0
    r_sp: complex = 0.0
    r_ps: complex = 0.0
    r_pp: complex = 0.0

    def __post_init__(self):
        values = (self.r_ss, self.r_sp, self.r_ps, self.r_pp)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"reflection coefficients must be finite, got {values}")

    @property
    def constant_reflection(self) -> ReflectionMatrix:
        return ReflectionMatrix(self.r_ss, self.r_sp, self.r_ps, self.r_pp)


def _real_constants(r: ReflectionMatrix) -> ReflectionMatrix:
    values = [complex(v) for v in (r.r_ss, r.r_sp, r.r_ps, r.r_pp)]
    if any(v.imag for v in values):
        raise ValueError(f"limit coefficients must be real, got {values}")
    return ReflectionMatrix(*(v.real for v in values))


def retarded_limit_coefficients(medium) -> ReflectionMatrix:
    """Constant coefficients of the far-field (retarded) regime: the
    reflection matrix at normal incidence (omega = k_perp = 1), as floats.

    For the axion half-space, with n = sqrt(eps), these are e.g.
    r_ss = ((1 - n)(eps + n) - n Delta^2)/((1 + n)(eps + n) + n Delta^2).
    """
    return _real_constants(medium.reflection(1.0, 1.0))


def nonretarded_limit_coefficients(medium) -> ReflectionMatrix:
    """Constant coefficients of the near-field regime (k_par -> infinity):
    the reflection matrix at the quasi-static point omega = 0, k_par = 1
    (k_perp = i), as floats."""
    return _real_constants(medium.reflection(0.0, 1j))
