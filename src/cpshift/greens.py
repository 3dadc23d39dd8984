"""Coincident-point scattering Green's tensor above a planar interface.

Above a planar interface the scattering tensor has three independent
entries, G_xx = G_yy, G_zz and G_xy = -G_yx; the others vanish.
`PlanarTensors` holds these three at a batch of points, with the
quadrature error and evaluation count of each.  It is the one tensor type:
the closed forms and both quadrature routes return it, and
`PlanarTensors.sandwich` contracts it with a dipole.

The azimuthal integral over the reflected-wave dyadics is done analytically,
leaving three radial kernels (with q = omega/c):

    xx (= yy):   e^{2 i k_perp z} [ r_ss - r_pp k_perp^2/q^2 ]
    zz:          e^{2 i k_perp z} 2 r_pp k_par^2/q^2
    xy (= -yx):  e^{2 i k_perp z} (r_sp + r_ps) k_perp/q

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
(`quadrature.integrate_batch`): on the real axis the six integrals of every
height of a scan (`real_axis_greens`), and on the imaginary axis the three
kernels at every (z, xi) of a batch (`imaginary_axis_greens`, which the
nonresonant shift calls once per round of its xi-integral, for all heights
at once).  Every round evaluates the reflection matrix once, on the nodes
of all new panels.  `scattering_greens_numeric` is the one-point case of
either.

The ideal mirrors also have closed forms (`greens_perfect_conductor`,
`greens_nonreciprocal_mirror`), over arrays of heights and frequencies on
either axis.  They are the oracles of the quadrature, and
`atomics.greens_grid` takes them wherever they apply.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import Constants, SCALED
from .quadrature import QuadratureConfig, integrate_batch, owner_groups
# integrate is not called here but stays importable from this module:
# perfbench/tracer.py wraps it by this name.
from .quadrature import integrate  # noqa: F401

__all__ = [
    "EvaluationPoint", "PlanarTensors",
    "greens_perfect_conductor", "greens_nonreciprocal_mirror",
    "scattering_greens_numeric", "imaginary_axis_greens", "real_axis_greens",
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
    a = np.asarray(dyadic, dtype=complex)
    return 0.5 * (a + a.conj().T)


def generalized_im(dyadic):
    """Anti-Hermitian part (A - A^dagger)/(2i); Hermitian-valued."""
    a = np.asarray(dyadic, dtype=complex)
    return (a - a.conj().T) / 2j


def _heights(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(z > 0):
        raise ValueError(f"atom height must be positive, got z={z[~(z > 0)]}")
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


def _kernels(medium, omega, z, c, kp, kpar, component):
    """Radial kernel `component` (0 xx, 1 zz, 2 xy) at each node.

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


def imaginary_axis_greens(z, xi, medium, constants: Constants = SCALED,
                          config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor at omega = i*xi for every xi > 0, in one lockstep call.

    z is one height or an array of heights aligned with xi.  Owner 3*j + m
    integrates kernel m at (z[j], xi[j]) along k_perp = i*kappa1, kappa1 in
    [xi/c, xi/c + kappa_max]; the measure -i dkappa1 combines with the
    i/8pi prefactor to 1/8pi.  A failure's `owner` is the index j.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = np.broadcast_to(_heights(z), xi.shape)
    if not np.all(xi > 0):
        raise ValueError(f"need xi > 0 at every point, got {xi[~(xi > 0)]}")
    cfg = config or QuadratureConfig()
    c = constants.c
    owner_xi = np.repeat(xi, 3)
    owner_z = np.repeat(z, 3)
    lo = owner_xi / c

    def f(t, owner):
        node_xi = owner_xi[owner]
        return _kernels(medium, 1j * node_xi, owner_z[owner], c, 1j * t,
                        np.sqrt(np.maximum(t * t - (node_xi / c) ** 2, 0.0)),
                        owner % 3)

    with owner_groups(3):
        values, errors, neval = integrate_batch(
            f, lo, lo + cfg.kappa_cutoff / (2.0 * owner_z), rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    pref = 1.0 / (8 * np.pi)
    g = (pref * values).reshape(-1, 3)
    err = errors.reshape(-1, 3)
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2],
                         pref * (err[:, 0] + err[:, 1] + err[:, 2]),
                         neval.reshape(-1, 3).sum(axis=1))


def real_axis_greens(z, omega, medium, constants: Constants = SCALED,
                     config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor at one real omega > 0 for every height z > 0, in one
    lockstep call.

    Owners 6*j to 6*j + 2 integrate the three kernels at z[j] on the
    propagating segment, k_perp = t in (0, q], whose Jacobian cancels the
    1/k_perp measure; owners 6*j + 3 to 6*j + 5 on the evanescent one,
    k_perp = i*t, t in (0, kappa_max], measure -i dt, e^{-2 t z} decay.
    A failure's `owner` is the index j.
    """
    z = _heights(z)
    cfg = config or QuadratureConfig()
    c = constants.c
    omega = complex(omega)
    q = omega.real / c
    owner_z = np.repeat(z, 6)
    owner_prop = np.tile(np.arange(6) < 3, z.size)

    def f(t, owner):
        prop = owner_prop[owner]
        return _kernels(medium, omega, owner_z[owner], c, np.where(prop, t, 1j * t),
                        np.where(prop, np.sqrt(np.maximum(q * q - t * t, 0.0)),
                                 np.sqrt(q * q + t * t)),
                        owner % 3)

    hi = np.where(owner_prop, q, cfg.kappa_cutoff / (2.0 * owner_z))
    with owner_groups(6):
        values, errors, neval = integrate_batch(
            f, np.zeros(hi.size), hi, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
            max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    # combined point by point in Python complex arithmetic, as the
    # one-point tensor always was, so figures keep their last digits
    pref = 1j / (8 * np.pi)
    xx, zz, xy, err = [], [], [], []
    for (a1, z1, x1, a2, z2, x2), e in zip(values.reshape(-1, 6).tolist(),
                                           errors.reshape(-1, 6).tolist()):
        xx.append(pref * (a1 - 1j * a2))
        zz.append(pref * (z1 - 1j * z2))
        xy.append(pref * (x1 - 1j * x2))
        err.append(abs(pref) * ((e[0] + e[1] + e[2]) + (e[3] + e[4] + e[5])))
    return PlanarTensors(np.array(xx), np.array(zz), np.array(xy), np.array(err),
                         neval.reshape(-1, 6).sum(axis=1))


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              constants: Constants = SCALED,
                              config: QuadratureConfig | None = None) -> PlanarTensors:
    """Quadrature evaluation of the scattering tensor at one point."""
    omega = complex(point.frequency)
    if point.is_imaginary:
        g = imaginary_axis_greens(point.z, omega.imag, medium, constants, config)
    else:
        g = real_axis_greens(point.z, omega, medium, constants, config)
    return g.point(0)
