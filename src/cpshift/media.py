"""Reflection models for the lower half-space.

Three media are supported: a perfect electric conductor, a perfect
nonreciprocal mirror (pure s<->p conversion with a fixed sign), and a
half-space with permittivity/permeability plus an axion magneto-electric
coupling theta.  Medium 1 (where the atom sits) is always vacuum.
Frequencies and wavenumbers are in the package's units, c = hbar = mu0 =
eps0 = 1.

All reflection evaluations are vectorized over k_par and accept real
frequencies as well as purely imaginary omega = i*xi, either one omega for
all k_par or an array of omega aligned with k_par.  Every medium here is
nondispersive, r(i lambda xi, lambda k_par) = r(i xi, k_par) for lambda > 0;
`atomics.nonresonant_shift_grid` relies on this.

Each medium also states its `constant_reflection`: the reflection matrix
if it depends neither on k_par nor on omega (the two ideal mirrors, the
constant test medium, and the axion half-space at epsilon = 1), else None.
`atomics` takes closed forms for exactly those media.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ALPHA_FS

__all__ = [
    "ReflectionMatrix", "PoleError",
    "PerfectConductor", "PerfectNonreciprocalMirror", "AxionMedium",
    "ConstantReflectionMedium",
    "delta", "perpendicular_wavenumber",
    "retarded_limit_coefficients", "nonretarded_limit_coefficients",
]


class PoleError(ArithmeticError):
    """Shared reflection denominator vanished on the integration path.

    `owner` is the flat index of the offending k_par node (None where that
    is not known); a batched quadrature maps it to the integral it serves.
    """

    def __init__(self, message, owner=None):
        super().__init__(message)
        self.owner = owner


@dataclass(frozen=True, eq=False)
class ReflectionMatrix:
    """2x2 reflection coefficients r[outgoing][incoming].

    Entries may be scalars or ndarrays (vectorized over k_par).
    """

    r_ss: complex
    r_sp: complex
    r_ps: complex
    r_pp: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.r_ss, self.r_sp], [self.r_ps, self.r_pp]])


def delta(theta1: float, theta2: float) -> float:
    """Dimensionless axion mismatch alpha*(theta2 - theta1)/pi."""
    return ALPHA_FS * (theta2 - theta1) / math.pi


def perpendicular_wavenumber(omega, k_par, epsilon: float = 1.0, mu: float = 1.0):
    """k_perp = sqrt(eps*mu*omega^2 - k_par^2) with Im >= 0.

    Branch: Im(k_perp) >= 0 so that e^{i k_perp z} decays for z > 0; on the
    real axis (propagating waves) the root with Re >= 0 is taken.  Works for
    real omega and for omega = i*xi (result then purely imaginary positive);
    omega may be a scalar or an array aligned with k_par.
    """
    k_par = np.asarray(k_par, dtype=float)
    if np.any((np.asarray(omega) == 0) & (k_par == 0)):
        raise ValueError("k_perp undefined at omega = k_par = 0")
    kz = np.sqrt(epsilon * mu * omega ** 2 - k_par ** 2 + 0j)
    # np.sqrt of a negative real with -0j imaginary part lands on the wrong
    # side of the cut; fold everything back onto Im >= 0.
    kz = np.where(kz.imag < 0, -kz, kz)
    kz = np.where((kz.imag == 0) & (kz.real < 0), -kz, kz)
    return kz[()] if kz.ndim == 0 else kz


class _ConstantReflection:
    """A medium whose reflection matrix is its `constant_reflection` at
    every (omega, k_par)."""

    def reflection(self, omega, k_par) -> ReflectionMatrix:
        shape = np.shape(k_par)
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


@dataclass(frozen=True)
class AxionMedium:
    """Half-space with permittivity, permeability and axion coupling theta.

    Medium 1 is vacuum (eps_1 = 1, theta_1 = 0, n_1 = 1).  The cross
    coefficients carry Delta = alpha*theta/pi.  The Fresnel weights are
    those of a nonmagnetic medium, so mu must be 1 (it is kept as a field
    for callers that state it); epsilon must be positive and finite, theta
    finite.  Nondispersive (constant eps) by construction.  theta is marked
    as an angle (radians), so text input may also give it as a pi-multiple.
    """

    epsilon: float = 1.0
    mu: float = 1.0
    theta: float = field(default=math.pi, metadata={"angle": True})
    delta: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.mu != 1:
            raise ValueError(f"mu must be 1 (the Fresnel weights are those of a "
                             f"nonmagnetic medium), got {self.mu}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
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

    def reflection(self, omega, k_par) -> ReflectionMatrix:
        k1 = perpendicular_wavenumber(omega, k_par, 1.0, 1.0)
        k2 = perpendicular_wavenumber(omega, k_par, self.epsilon, self.mu)
        dd = self.delta ** 2
        den = (k1 + k2) * (self.epsilon * k1 + k2) + k1 * k2 * dd
        pole = np.flatnonzero(den == 0)
        if pole.size:
            i = int(pole[0])
            w, k = (np.broadcast_to(v, den.shape).flat[i] for v in (omega, k_par))
            raise PoleError(f"reflection pole at omega={w}, k_par={k}", owner=i)
        r_ss = ((k1 - k2) * (self.epsilon * k1 + k2) - k1 * k2 * dd) / den
        r_pp = ((self.epsilon * k1 - k2) * (k1 + k2) + k1 * k2 * dd) / den
        r_x = -2.0 * k1 * k2 * self.delta / den
        return ReflectionMatrix(r_ss=r_ss, r_sp=r_x, r_ps=r_x, r_pp=r_pp)


@dataclass(frozen=True)
class ConstantReflectionMedium(_ConstantReflection):
    """Fixed coefficients at every (omega, k_par); single-channel test medium."""

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
    reflection matrix at normal incidence (omega = 1, k_par = 0), as floats.

    For the axion half-space, with n = sqrt(eps), these are e.g.
    r_ss = ((1 - n)(eps + n) - n Delta^2)/((1 + n)(eps + n) + n Delta^2).
    """
    return _real_constants(medium.reflection(1.0, 0.0))


def nonretarded_limit_coefficients(medium) -> ReflectionMatrix:
    """Constant coefficients of the near-field regime (k_par -> infinity):
    the reflection matrix at the quasi-static point omega = 0, k_par = 1,
    as floats."""
    return _real_constants(medium.reflection(0.0, 1.0))
