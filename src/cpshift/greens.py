"""Coincident-point scattering Green's tensor above a planar interface.

Above a planar interface the scattering tensor has three independent
entries, G_xx = G_yy, G_zz and G_xy = -G_yx; the others vanish.
`PlanarTensors` holds these three at a batch of points, with the
quadrature error and evaluation count of each.  It is the one tensor type:
the closed forms and the quadrature return it, and
`PlanarTensors.sandwich` contracts it with a dipole.

The azimuthal integral over the reflected-wave dyadics is done analytically,
leaving three radial kernels (with q = omega/c):

    xx (= yy):   e^{2 i k_perp z} [ r_ss - r_pp k_perp^2/q^2 ]
    zz:          e^{2 i k_perp z} 2 r_pp k_par^2/q^2
    xy (= -yx):  e^{2 i k_perp z} (r_sp + r_ps) k_perp/q

and G_ab = (i/8pi) * integral over the k_par half-line with measure
(k_par/k_perp) dk_par.  One quadrature (`numeric_greens`) takes this
integral on both frequency axes, as segments of one k-plane path.  On the
evanescent segment k_perp = i*t, the measure contributes -i dt, k_par =
sqrt(t^2 + (omega/c)^2), and e^{-2 t z} damps the kernels.  For real omega
t runs from 0, and a propagating segment comes first: k_perp = t in (0, q],
whose Jacobian cancels the 1/k_perp of the measure exactly.  For
omega = i*xi the Wick-rotated path is the evanescent segment alone, started
at t = xi/c where k_par = 0; every factor is real there, and the tensor
comes out real (Schwarz reflection principle).  On both axes
G = (i/8pi) * (propagating - i * evanescent), with no propagating term on
the imaginary axis.

Each kernel on each segment is its own integral, but they all need the
reflection matrix, so they run as owners of one lockstep quadrature
(`quadrature.integrate_batch`): the six integrals of every height of a scan
on the real axis, the three of every (z, xi) of a batch on the imaginary
axis.  Every round evaluates the reflection matrix once, on the nodes of
all new panels.  `scattering_greens_numeric` is the one-point case.  The
nonresonant shift integrates `_kernels` over s = c k_perp/(i xi) instead.

The ideal mirrors also have closed forms (`greens_perfect_conductor`,
`greens_nonreciprocal_mirror`), over arrays of heights and frequencies on
either axis.  They are the oracles of the quadrature, and
`atomics.greens_grid` takes them wherever they apply.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import Constants, SCALED
from .quadrature import QuadratureConfig, QuadratureError, integrate_batch
# integrate is not called here but stays importable from this module:
# perfbench/tracer.py wraps it by this name.
from .quadrature import integrate  # noqa: F401

__all__ = [
    "EvaluationPoint", "PlanarTensors",
    "greens_perfect_conductor", "greens_nonreciprocal_mirror",
    "scattering_greens_numeric", "numeric_greens",
    "generalized_re", "generalized_im",
]


class PlanarTensors(NamedTuple):
    """G_xx = G_yy, G_zz and G_xy = -G_yx at a batch of points.

    The fields are arrays aligned with the points, or Python scalars for
    one point (`point`).  quad_error and neval are per point, summed over
    the kernels; a closed form has zero of both.
    """

    xx: np.ndarray
    zz: np.ndarray
    xy: np.ndarray
    quad_error: np.ndarray
    neval: np.ndarray

    def point(self, j: int) -> PlanarTensors:
        """Point j, as Python scalars."""
        return PlanarTensors(complex(self.xx[j]), complex(self.zz[j]),
                             complex(self.xy[j]), float(self.quad_error[j]),
                             int(self.neval[j]))

    def sandwich(self, dipole) -> np.ndarray:
        """s = d . G . conj(d) at every point (a 0-d array for one point).

        With M the full 3x3 tensor, this is v = d @ M, then s = v @ conj(d),
        in numpy's order and array arithmetic, so that one point, a batch
        and (d @ M) @ conj(d) give the same bits.  numpy takes the last
        step as a BLAS dot product, which fuses its four real sums; each
        sum has one nonzero term when at most one component of d has a
        nonzero real part and at most one a nonzero imaginary part (the
        circular dipoles of the coordinate planes, say).  For other dipoles
        the two can differ in the last digits.
        """
        d = np.asarray(dipole, dtype=complex)
        c = d.conj()
        # arrays, not numpy scalars: scalar complex products round differently
        xx, zz, xy = (np.atleast_1d(np.asarray(g, dtype=complex)) for g in self[:3])
        v0 = xx * d[0] - xy * d[1]
        v1 = xy * d[0] + xx * d[1]
        s = v0 * c[0] + v1 * c[1] + zz * d[2] * c[2]
        return s.reshape(np.shape(self.xx))


@dataclass(frozen=True)
class EvaluationPoint:
    """Atom height z > 0 and the (real or purely imaginary) frequency."""

    z: float
    frequency: complex

    def __post_init__(self):
        if not 0 < self.z < math.inf:
            raise ValueError(f"atom height must be positive and finite, got z={self.z}")
        w = complex(self.frequency)
        real_positive = w.imag == 0 and 0 < w.real < math.inf
        imag_positive = w.real == 0 and 0 < w.imag < math.inf
        if not (real_positive or imag_positive):
            raise ValueError(
                f"frequency must be finite real-positive or i*xi with finite "
                f"xi>0, got {w}")

    @property
    def is_imaginary(self) -> bool:
        return complex(self.frequency).real == 0


def generalized_re(dyadic):
    """Hermitian part (A + A^dagger)/2; the coincident-point generalized Re."""
    a = np.asarray(dyadic, dtype=complex)
    return 0.5 * (a + a.conj().T)


def generalized_im(dyadic):
    """Anti-Hermitian part (A - A^dagger)/(2i); Hermitian-valued."""
    a = np.asarray(dyadic, dtype=complex)
    return (a - a.conj().T) / 2j


def _heights(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    good = np.isfinite(z) & (z > 0)
    if not np.all(good):
        raise ValueError(f"atom height must be positive and finite, got z={z[~good]}")
    return z


def _closed_form(shape, xx, zz, xy) -> PlanarTensors:
    """Entries computed on arrays (numpy scalars round complex products
    differently), returned in the broadcast shape of z and omega."""
    return PlanarTensors(xx.reshape(shape), zz.reshape(shape), xy.reshape(shape),
                         np.zeros(shape), np.zeros(shape, dtype=int))


def greens_perfect_conductor(z, omega, constants: Constants = SCALED) -> PlanarTensors:
    """Closed-form conductor tensor (G_xy = 0) at heights z and frequencies
    omega, real or i*xi, broadcast against each other."""
    shape = np.broadcast_shapes(np.shape(z), np.shape(omega))
    z = _heights(z)
    c = constants.c
    phase = np.exp(2j * omega * z / c)
    xx = (-1.0 / (8 * np.pi * z)
          - 1j * c / (16 * np.pi * omega * z ** 2)
          + c ** 2 / (32 * np.pi * omega ** 2 * z ** 3)) * phase
    zz = (-1j * c / (8 * np.pi * omega * z ** 2)
          + c ** 2 / (16 * np.pi * omega ** 2 * z ** 3)) * phase
    return _closed_form(shape, xx, zz, np.zeros_like(xx))


def greens_nonreciprocal_mirror(z, omega, sign: float = -1.0,
                                constants: Constants = SCALED) -> PlanarTensors:
    """Closed-form conversion-mirror tensor (only G_xy = -G_yx is nonzero) at
    heights z and frequencies omega, real or i*xi, broadcast against each
    other."""
    shape = np.broadcast_shapes(np.shape(z), np.shape(omega))
    z = _heights(z)
    c = constants.c
    xy = sign * (1.0 / (8 * np.pi * z)
                 + 1j * c / (16 * np.pi * omega * z ** 2)) * np.exp(2j * omega * z / c)
    zero = np.zeros_like(xy)
    return _closed_form(shape, zero, zero, xy)


def _kernels(medium, omega, z, c, kp, kpar):
    """The radial kernels (xx, zz, xy) at nodes of (complex) k_perp kp and
    (real) k_par kpar; omega is a scalar or an array aligned with them."""
    q = omega / c
    r = medium.reflection(omega, kpar, c=c)
    damp = np.exp(2j * kp * z) if np.any(z) else 1.0
    return (damp * (r.r_ss - r.r_pp * kp ** 2 / q ** 2),
            damp * 2.0 * r.r_pp * kpar ** 2 / q ** 2,
            damp * (r.r_sp + r.r_ps) * kp / q)


def numeric_greens(z, omega, medium, constants: Constants = SCALED,
                   config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor by k-quadrature at every height z[j] > 0, at one real
    omega > 0 or at omega = i*xi[j] (finite xi > 0) aligned with z, in one
    lockstep call.

    Every point integrates the three kernels on the evanescent segment,
    k_perp = i*t, t in [lo, lo + kappa_max], k_par = sqrt(t^2 + (omega/c)^2),
    measure -i dt, with lo = xi/c on the imaginary axis and 0 on the real
    one; a real omega first takes the propagating segment, k_perp = t in
    (0, q], k_par = sqrt(q^2 - t^2).  Owner 3*(S*j + s) + m integrates kernel
    m on segment s of point j, with S = 2 segments on the real axis and 1 on
    the imaginary one.  A failure's `owner` is the index j.
    """
    z = _heights(z)
    cfg = config or QuadratureConfig()
    c = constants.c
    w = np.asarray(omega, dtype=complex)
    if w.ndim == 0 and w.imag == 0 and 0 < w.real < np.inf:
        w = complex(w)  # a scalar: per-node omega arrays slow the reflection
        q = w.real / c
        segments, lo, q2 = 2, np.zeros(z.size), np.full(z.size, q * q)
    elif np.all((w.real == 0) & (w.imag > 0) & (w.imag < np.inf)):
        z, xi = np.broadcast_arrays(z, np.atleast_1d(w.imag))
        q, segments, lo, q2 = 0.0, 1, xi / c, -(xi / c) ** 2
        w = np.repeat(1j * xi, 3)
    else:
        raise ValueError(f"need one finite real omega > 0, or i*xi with finite "
                         f"xi > 0, got {omega}")
    size = 3 * segments
    owner_z = np.repeat(z, size)
    owner_q2 = np.repeat(q2, size)
    prop = np.tile(np.arange(size) < size - 3, z.size)
    # k_perp = unit * t and k_par^2 = (omega/c)^2 - k_perp^2, with unit 1 on
    # the propagating segment and i on the evanescent one
    owner_unit = np.where(prop, 1.0 + 0j, 1j)
    owner_sign = np.where(prop, -1.0, 1.0)

    def f(t, owner):
        kpar2 = t * t * owner_sign[owner] + owner_q2[owner]
        return np.choose(owner % 3, _kernels(
            medium, w[owner] if segments == 1 else w, owner_z[owner], c,
            t * owner_unit[owner], np.sqrt(np.maximum(kpar2, 0.0))))

    owner_lo = np.repeat(lo, size)
    hi = np.where(prop, q, owner_lo + cfg.kappa_cutoff / (2.0 * owner_z))
    try:
        values, errors, neval = integrate_batch(
            f, owner_lo, hi, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
            max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    except (ArithmeticError, QuadratureError) as exc:
        if getattr(exc, "owner", None) is not None:
            exc.owner //= size
        raise
    pref = 1j / (8 * np.pi)
    v = values.reshape(-1, segments, 3)
    e = errors.reshape(-1, segments, 3)
    g = pref * ((v[:, 0] if segments == 2 else 0.0) - 1j * v[:, -1])
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2],
                         abs(pref) * (e[:, :, 0] + e[:, :, 1] + e[:, :, 2]).sum(axis=1),
                         neval.reshape(-1, size).sum(axis=1))


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              constants: Constants = SCALED,
                              config: QuadratureConfig | None = None) -> PlanarTensors:
    """Quadrature evaluation of the scattering tensor at one point."""
    return numeric_greens(point.z, point.frequency, medium, constants, config).point(0)
