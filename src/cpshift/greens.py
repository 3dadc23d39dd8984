"""Coincident-point scattering Green's tensor above a planar interface.

The azimuthal integral over the reflected-wave dyadics is done analytically,
leaving three radial kernels (with q = omega/c):

    diag (xx = yy):  e^{2 i k_perp z} [ r_ss - r_pp k_perp^2/q^2 ]
    zz:              e^{2 i k_perp z} 2 r_pp k_par^2/q^2
    xy (= -yx):      e^{2 i k_perp z} (r_sp + r_ps) k_perp/q

and G_ab = (i/8pi) * integral over the k_par half-line with measure
(k_par/k_perp) dk_par.  For real omega the path is split at the lightline:
on the propagating segment we parametrize by real k_perp in (0, q], whose
Jacobian cancels the 1/k_perp of the measure exactly; on the evanescent
segment k_perp = i*kappa and the measure contributes -i dkappa, damped by
e^{-2 kappa z}.  For omega = i*xi the whole path is parametrized by
k_perp = i*kappa1, kappa1 >= xi/c, every factor is real, and the tensor
comes out real (Schwarz reflection principle).

Each kernel on each segment is its own integral, but they all need the
reflection matrix, so they run as owners of one lockstep quadrature
(`quadrature.integrate_batch`): the six real-axis integrals of one point in
one call, and on the imaginary axis the three kernels at every xi of a
batch (`imaginary_axis_greens`, which the nonresonant shift calls once per
round of its xi-integral).  Every round evaluates the reflection matrix
once, on the nodes of all live panels.

Ideal mirrors additionally have closed forms, used as oracles and as the
fast path for the scan grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import Constants, SCALED
# integrate is not called here but stays importable from this module:
# perfbench/tracer.py wraps it by this name.
from .quadrature import QuadratureConfig, integrate, integrate_batch  # noqa: F401

__all__ = [
    "ComplexDyadic", "EvaluationPoint", "PlanarTensors",
    "greens_perfect_conductor", "greens_nonreciprocal_mirror",
    "scattering_greens_numeric", "imaginary_axis_greens",
    "generalized_re", "generalized_im",
]


@dataclass(frozen=True, eq=False)
class ComplexDyadic:
    """3x3 complex tensor with optional quadrature diagnostics."""

    matrix: np.ndarray
    quad_error: float = 0.0
    neval: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def xx(self) -> complex:
        return self.matrix[0, 0]

    @property
    def xy(self) -> complex:
        return self.matrix[0, 1]

    @property
    def yx(self) -> complex:
        return self.matrix[1, 0]

    @property
    def yy(self) -> complex:
        return self.matrix[1, 1]

    @property
    def zz(self) -> complex:
        return self.matrix[2, 2]

    def contract(self, dipole: np.ndarray) -> complex:
        """Scalar sandwich d . G . conj(d)."""
        d = np.asarray(dipole, dtype=complex)
        return complex(d @ self.matrix @ np.conj(d))


@dataclass(frozen=True)
class EvaluationPoint:
    """Atom height z > 0 and the (real or purely imaginary) frequency."""

    z: float
    frequency: complex

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError(f"atom height must be positive, got z={self.z}")
        w = complex(self.frequency)
        real_positive = w.imag == 0 and w.real > 0
        imag_positive = w.real == 0 and w.imag > 0
        if not (real_positive or imag_positive):
            raise ValueError(
                f"frequency must be real-positive or i*xi with xi>0, got {w}")

    @property
    def is_imaginary(self) -> bool:
        return complex(self.frequency).real == 0


def generalized_re(dyadic):
    """Hermitian part (A + A^dagger)/2; the coincident-point generalized Re."""
    if isinstance(dyadic, ComplexDyadic):
        return ComplexDyadic(generalized_re(dyadic.matrix))
    a = np.asarray(dyadic, dtype=complex)
    return 0.5 * (a + a.conj().T)


def generalized_im(dyadic):
    """Anti-Hermitian part (A - A^dagger)/(2i); Hermitian-valued."""
    if isinstance(dyadic, ComplexDyadic):
        return ComplexDyadic(generalized_im(dyadic.matrix))
    a = np.asarray(dyadic, dtype=complex)
    return (a - a.conj().T) / 2j


def greens_perfect_conductor(z: float, omega: complex,
                             constants: Constants = SCALED) -> ComplexDyadic:
    """Closed-form conductor tensor; diagonal only, valid at omega or i*xi."""
    if z <= 0:
        raise ValueError(f"atom height must be positive, got z={z}")
    c = constants.c
    phase = np.exp(2j * omega * z / c)
    xx = (-1.0 / (8 * np.pi * z)
          - 1j * c / (16 * np.pi * omega * z ** 2)
          + c ** 2 / (32 * np.pi * omega ** 2 * z ** 3)) * phase
    zz = (-1j * c / (8 * np.pi * omega * z ** 2)
          + c ** 2 / (16 * np.pi * omega ** 2 * z ** 3)) * phase
    return ComplexDyadic(np.diag([xx, xx, zz]))


def greens_nonreciprocal_mirror(z: float, omega: complex, sign: float = -1.0,
                                constants: Constants = SCALED) -> ComplexDyadic:
    """Closed-form conversion-mirror tensor; only xy = -yx is nonzero."""
    if z <= 0:
        raise ValueError(f"atom height must be positive, got z={z}")
    c = constants.c
    xy = sign * (1.0 / (8 * np.pi * z)
                 + 1j * c / (16 * np.pi * omega * z ** 2)) * np.exp(2j * omega * z / c)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = xy
    m[1, 0] = -xy
    return ComplexDyadic(m)


def _kernels(medium, omega, z, c, kp, kpar, component):
    """Radial kernel `component` (0 diag, 1 zz, 2 xy) at each node.

    kp/kpar are the (complex) k_perp and (real) k_par of each node; omega is
    a scalar or an array aligned with them.
    """
    q = omega / c
    r = medium.reflection(omega, kpar, c=c)
    damp = np.exp(2j * kp * z)
    return np.choose(component, (
        damp * (r.r_ss - r.r_pp * kp ** 2 / q ** 2),
        damp * 2.0 * r.r_pp * kpar ** 2 / q ** 2,
        damp * (r.r_sp + r.r_ps) * kp / q))


class PlanarTensors(NamedTuple):
    """G_xx = G_yy, G_zz and G_xy = -G_yx at a batch of frequencies.

    quad_error and neval are per frequency, summed over the three kernels.
    """

    diag: np.ndarray
    zz: np.ndarray
    xy: np.ndarray
    quad_error: np.ndarray
    neval: np.ndarray


def imaginary_axis_greens(z: float, xi, medium, constants: Constants = SCALED,
                          config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor at omega = i*xi for every xi > 0, in one lockstep call.

    Owner 3*j + m integrates kernel m at xi[j] along k_perp = i*kappa1,
    kappa1 in [xi/c, xi/c + kappa_max]; the measure -i dkappa1 combines with
    the i/8pi prefactor to 1/8pi.
    """
    if z <= 0:
        raise ValueError(f"atom height must be positive, got z={z}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(xi > 0):
        raise ValueError(f"need xi > 0 at every point, got {xi[~(xi > 0)]}")
    cfg = config or QuadratureConfig()
    c = constants.c
    owner_xi = np.repeat(xi, 3)
    owner_kernel = np.tile(np.arange(3), xi.size)
    lo = owner_xi / c

    def f(t, owner):
        node_xi = owner_xi[owner]
        return _kernels(medium, 1j * node_xi, z, c, 1j * t,
                        np.sqrt(np.maximum(t * t - (node_xi / c) ** 2, 0.0)),
                        owner_kernel[owner])

    values, errors, neval = integrate_batch(
        f, lo, lo + cfg.kappa_cutoff / (2.0 * z), rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    pref = 1.0 / (8 * np.pi)
    g = (pref * values).reshape(-1, 3)
    err = errors.reshape(-1, 3)
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2],
                         pref * (err[:, 0] + err[:, 1] + err[:, 2]),
                         neval.reshape(-1, 3).sum(axis=1))


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              constants: Constants = SCALED,
                              config: QuadratureConfig | None = None) -> ComplexDyadic:
    """Quadrature evaluation of the scattering tensor at coincident points."""
    cfg = config or QuadratureConfig()
    c = constants.c
    z = point.z
    omega = complex(point.frequency)

    if point.is_imaginary:
        g = imaginary_axis_greens(z, omega.imag, medium, constants, cfg)
        g_diag, g_zz, g_xy = g.diag[0], g.zz[0], g.xy[0]
        quad_err = float(g.quad_error[0])
        neval = int(g.neval[0])
    else:
        q = omega.real / c
        kappa_max = cfg.kappa_cutoff / (2.0 * z)

        # owners 0-2: propagating, k_perp = t in (0, q], whose Jacobian
        # cancels the 1/k_perp measure; owners 3-5: evanescent, k_perp =
        # i*t, measure -i dt, e^{-2 t z} decay
        def f(t, owner):
            prop = owner < 3
            return _kernels(medium, omega, z, c, np.where(prop, t, 1j * t),
                            np.where(prop, np.sqrt(np.maximum(q * q - t * t, 0.0)),
                                     np.sqrt(q * q + t * t)),
                            owner % 3)

        values, errors, nevals = integrate_batch(
            f, np.zeros(6), np.repeat([q, kappa_max], 3), rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
        d1, z1, x1, d2, z2, x2 = values.tolist()
        e = errors.tolist()
        pref = 1j / (8 * np.pi)
        g_diag = pref * (d1 - 1j * d2)
        g_zz = pref * (z1 - 1j * z2)
        g_xy = pref * (x1 - 1j * x2)
        quad_err = abs(pref) * ((e[0] + e[1] + e[2]) + (e[3] + e[4] + e[5]))
        neval = int(nevals.sum())

    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = m[1, 1] = g_diag
    m[2, 2] = g_zz
    m[0, 1] = g_xy
    m[1, 0] = -g_xy
    return ComplexDyadic(m, quad_error=quad_err, neval=neval)
