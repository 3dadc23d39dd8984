"""Coincident-point scattering Green's tensor above a planar interface.

Above a planar interface the scattering tensor has three independent
entries, G_xx = G_yy, G_zz and G_xy = -G_yx; the others vanish.
`PlanarTensors` holds these three at a batch of points, with the
quadrature error and evaluation count of each.  It is the one tensor type:
the closed forms and the quadrature return it, and
`PlanarTensors.sandwich` contracts it with a dipole.

The azimuthal integral over the reflected-wave dyadics is done analytically,
leaving three radial kernels (with q = omega, in the package's units
c = hbar = mu0 = eps0 = 1):

    xx (= yy):   e^{2 i k_perp z} [ r_ss - r_pp k_perp^2/q^2 ]
    zz:          e^{2 i k_perp z} 2 r_pp k_par^2/q^2
    xy (= -yx):  e^{2 i k_perp z} (r_sp + r_ps) k_perp/q

and G_ab = (i/8pi) * integral over the k_par half-line with measure
(k_par/k_perp) dk_par = -dk_perp, from k_perp = i*inf to q.  One
quadrature (`numeric_greens`) takes this integral on both frequency axes
along one path, k_perp = q + i u with u in [0, inf):

    G_ab = (1/8pi) e^{2 i q z} int_0^inf K_ab(q + i u) e^{-2 u z} du,
    k_par^2 = u (u - 2 i q),

and evaluates the medium's reflection at the vacuum k_perp of each node.
Nothing oscillates on this path: e^{2 i q z} leaves the integral as one
factor, and e^{-2 u z} damps the kernels.  For real omega this is the
usual deformation of a Sommerfeld integral off the real k_par axis (Chew,
Waves and Fields in Inhomogeneous Media, ch. 2; Michalski and Mosig, IEEE
Trans. Antennas Propag. 45, 508 (1997)).  Between that axis and this
path the medium's k_2^2 = k_perp^2 + (eps - 1) q^2 has a positive
imaginary part, so no branch cut of k_2 is crossed, the axion reflection
has no pole, and the arc at infinity vanishes with e^{2 i k_perp z}; the
medium's lightline, a square-root branch point on the real k_par axis,
is not on the path.  For omega = i*xi the same formula is the
Wick-rotated contour: k_perp = i (xi + u), k_par^2 = u (u + 2 xi) and
e^{2 i q z} = e^{-2 xi z}.  Every factor is real there, and the tensor
comes out real (Schwarz reflection principle).  On both axes k_par^2 and
e^{-2 u z} are formed from u itself, so the rounding of k_perp never
meets 2 q z.  u runs to infinity through the map u = (1 - x)/(a x) of
x in (0, 1], with Jacobian 1/(a x^2) (QUADPACK's infinite-range
transform), so no cutoff enters the tensor.  The integrand has two
scales in u: 1/(2z), over which e^{-2 u z} decays, and |q|, over which
the reflection varies (every medium here is nondispersive).  For
2 |q| z >= 1 the scale is a = 2z.  Below, a = 2z would squeeze the
reflection's scale into a sliver of width ~2 |q| z at x = 1, and the
rate, the small imaginary part of the tensor there, would lose digits
(2e-6 of it at z = 1e-3 above epsilon = 0.25); a = sqrt(2z/|q|), their
geometric mean, keeps both scales ~sqrt(2 |q| z) from the ends of x.
Bisection from [0, 1] reaches the panels between 0, 1/16, 1/8, 1/4, 1/2
and 1 at every height, so every point starts on them
(`quadrature.HALF_LINE_MESH`).

The three kernels of a point share one reflection matrix, so each point
is one three-component integral, and all of them run as owners of one
lockstep quadrature (`quadrature.integrate_batch`): one per height of a
scan on the real axis, one per (z, xi) of a batch on the imaginary axis.
Every round evaluates the reflection matrix once, on the nodes of all new
panels, and each node serves all three kernels, written into one
[nodes, 3] array.  `scattering_greens_numeric` is the one-point
case.  The nonresonant shift integrates `_kernels` over s = k_perp/(i xi)
instead.

A reflection matrix that does not depend on k_par leaves elementary
integrals, so the tensor of every such medium has a closed form
(`closed_form_greens`), over arrays of heights and frequencies on either
axis: the two ideal mirrors (`greens_perfect_conductor`,
`greens_nonreciprocal_mirror`), the constant test medium and the axion
half-space at epsilon = 1.  The closed forms are the oracles of the
quadrature (with a 20-digit mpmath table for the axion half-space,
`scripts/make_oracle.py`), and `atomics.greens_grid` takes one for every
medium that states its `constant_reflection`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .media import PerfectConductor, PerfectNonreciprocalMirror, ReflectionMatrix
from .quadrature import (HALF_LINE_MESH, QuadratureConfig, _default_config,
                         integrate_batch)
# integrate is not called here but stays importable from this module:
# perfbench/tracer.py wraps it by this name.
from .quadrature import integrate  # noqa: F401

__all__ = [
    "EvaluationPoint", "PlanarTensors",
    "closed_form_greens", "greens_perfect_conductor", "greens_nonreciprocal_mirror",
    "scattering_greens_numeric", "numeric_greens",
    "generalized_re", "generalized_im",
]


class PlanarTensors(NamedTuple):
    """G_xx = G_yy, G_zz and G_xy = -G_yx at a batch of points.

    The fields are arrays aligned with the points, or Python scalars for
    one point (`point`).  quad_error (summed over the three kernels) and
    neval are per point; a closed form has zero of both.
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
        # arrays, not numpy scalars: scalar complex products round differently
        xx, zz, xy = (np.atleast_1d(np.asarray(g, dtype=complex)) for g in self[:3])
        return _sandwich(xx, zz, xy, d, d.conj()).reshape(np.shape(self.xx))


def _sandwich(xx, zz, xy, d, c):
    """d . G . conj(d) of complex kernel arrays, c = conj(d): v = d @ M, then
    v @ c.  PlanarTensors.sandwich and the nonresonant s-integrand both
    take it here, so the two give the same bits."""
    v0 = xx * d[0] - xy * d[1]
    v1 = xy * d[0] + xx * d[1]
    return v0 * c[0] + v1 * c[1] + zz * d[2] * c[2]


@dataclass(frozen=True)
class EvaluationPoint:
    """Atom height z > 0 and the (real or purely imaginary) frequency."""

    z: float
    frequency: complex

    def __post_init__(self):
        _heights(self.z)
        _frequencies(self.frequency)

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


def _frequencies(omega) -> np.ndarray:
    """omega as an array, each entry checked to be real and positive or i*xi
    with xi > 0, both finite (elsewhere e^{2 i omega z} may grow with z)."""
    w = np.asarray(omega)
    re, im = w.real, w.imag
    good = np.isfinite(w) & ((re == 0) | (im == 0)) & (np.maximum(re, im) > 0)
    if not good.all():
        raise ValueError(f"frequency omega must be finite real-positive or i*xi with "
                         f"finite xi > 0, got {w[~good]}")
    return w


def _heights(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    good = (z > 0) & (z < math.inf)  # false at nan
    if not np.logical_and.reduce(good, axis=None):
        raise ValueError(f"atom height must be positive and finite, got z={z[~good]}")
    return z


def _grid_omega(omega):
    """Raise unless omega is one frequency or an array of i*xi: the shapes
    both tensor routes of a grid take (`atomics.greens_grid`), so a medium
    cannot change what a call accepts."""
    if np.ndim(omega) and np.any(np.real(omega) != 0):
        raise ValueError(f"need one real omega, or an array of i*xi, got {omega}")


def closed_form_greens(z, omega, r: ReflectionMatrix) -> PlanarTensors:
    """The tensor of a reflection matrix r that does not depend on k_par, at
    heights z and frequencies omega, real or i*xi, broadcast against each
    other.

    With q = omega the measure (k_par/k_perp) dk_par is -dk_perp, so
    every entry is a combination of J_n = int k_perp^n e^{2 i k_perp z}
    dk_perp from i*inf to q:  G_xx = (i/8pi)(r_ss J0 - r_pp J2/q^2), G_zz = (i/8pi) 2 r_pp
    (J0 - J2/q^2), G_xy = (i/8pi)(r_sp + r_ps) J1/q.  With y = 1/(2iqz),
    J0, J1/q and J2/q^2 are e^{2iqz}/(2iz) times 1, 1 - y and
    1 - 2y + 2y^2, and (i/8pi)/(2iz) = 1/(16 pi z).
    """
    shape = np.broadcast_shapes(np.shape(z), np.shape(omega))
    z = _heights(z)
    q = _frequencies(omega)
    y = -0.5j / (q * z)
    scale = np.exp(2j * q * z) / (16 * np.pi * z)
    xx = scale * (r.r_ss - r.r_pp * (1.0 - 2.0 * y + 2.0 * y * y))
    zz = scale * 4.0 * r.r_pp * y * (1.0 - y)
    xy = scale * (r.r_sp + r.r_ps) * (1.0 - y)
    # entries are computed on arrays (numpy scalars round complex products
    # differently) and returned in the broadcast shape of z and omega
    return PlanarTensors(xx.reshape(shape), zz.reshape(shape), xy.reshape(shape),
                         np.zeros(shape), np.zeros(shape, dtype=int))


def greens_perfect_conductor(z, omega) -> PlanarTensors:
    """Closed-form conductor tensor (G_xy = 0); see closed_form_greens."""
    return closed_form_greens(z, omega, PerfectConductor().constant_reflection)


def greens_nonreciprocal_mirror(z, omega, sign: float = -1.0) -> PlanarTensors:
    """Closed-form conversion-mirror tensor (only G_xy = -G_yx is nonzero);
    see closed_form_greens."""
    r = PerfectNonreciprocalMirror(sign).constant_reflection
    return closed_form_greens(z, omega, r)


def _kernels(medium, omega, kp, kpar2, weight=None):
    """The radial kernels at nodes of (complex) vacuum k_perp kp with
    k_par^2 = kpar2, as the columns (xx, zz, xy) of one [M, 3] array, each
    times `weight` if one is given (the k-quadrature passes e^{-2 u z}
    times its Jacobian); omega and weight are scalars or arrays aligned
    with the nodes."""
    r = medium.reflection(omega, kp)
    out = np.empty(np.shape(kp) + (3,), dtype=complex)
    out[..., 0] = r.r_ss - r.r_pp * kp ** 2 / omega ** 2
    out[..., 1] = 2.0 * r.r_pp * kpar2 / omega ** 2
    out[..., 2] = (r.r_sp + r.r_ps) * kp / omega
    if weight is not None:
        out *= np.asarray(weight)[..., None]
    return out


def numeric_greens(z, omega, medium,
                   config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor by k-quadrature at every height z[j] > 0, at one real
    omega > 0 or at omega = i*xi[j] (finite xi > 0) aligned with z, in one
    lockstep call.

    Owner j integrates the three kernels of point j on the path k_perp =
    q + i u of the module docstring, over x in (0, 1] with u = (1 - x)/(a x),
    starting on the panels of HALF_LINE_MESH; a failure's `owner` is the
    index j.
    """
    z = _heights(z)
    cfg = config or _default_config()
    w = _frequencies(omega)
    _grid_omega(w)
    if w.ndim == 0 and w.imag == 0:
        q = float(w.real)  # a real scalar: omega arrays slow the kernels
    else:
        z, xi = np.broadcast_arrays(z, np.atleast_1d(w.imag))
        q = 1j * xi

    a = np.maximum(2.0 * z, np.sqrt(2.0 * z / np.abs(q)))

    def f(x, owner):
        zo, ao = z[owner], a[owner]
        qo = q[owner] if np.ndim(q) else q
        u = (1.0 - x) / (ao * x)
        return _kernels(medium, qo, qo + 1j * u, u * (u - 2j * qo),
                        np.exp(-2.0 * u * zo) / (ao * x * x))

    values, errors, neval = integrate_batch(
        f, np.zeros(z.size), np.ones(z.size), rel_tol=cfg.rel_tol,
        max_panels=cfg.max_panels, mesh=HALF_LINE_MESH)
    # [N, 3]; the engine returns no heights as a flat empty array
    v, e = values.reshape(-1, 3), errors.reshape(-1, 3)
    phase = np.exp(2j * q * z)
    g = (1.0 / (8 * np.pi)) * v * phase[:, None]
    err = (1.0 / (8 * np.pi)) * np.abs(phase) * (e[:, 0] + e[:, 1] + e[:, 2])
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2], err, neval)


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              config: QuadratureConfig | None = None) -> PlanarTensors:
    """Quadrature evaluation of the scattering tensor at one point."""
    return numeric_greens(point.z, point.frequency, medium, config).point(0)
