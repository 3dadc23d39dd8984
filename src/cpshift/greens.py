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
(k_par/k_perp) dk_par.  One quadrature (`numeric_greens`) takes this
integral on both frequency axes, as segments of one k-plane path.  On the
evanescent segment k_perp = i*t, the measure contributes -i dt, k_par =
sqrt(t^2 + omega^2), and e^{-2 t z} damps the kernels.  This segment runs
to t = inf, through the map t = lo + (1 - x)/(2 z x) of x in (0, 1], with
Jacobian 1/(2 z x^2) (QUADPACK's infinite-range transform), so no cutoff
enters the tensor.  For real omega t runs from lo = 0, and a propagating
segment comes first: k_perp = t in (0, q], whose Jacobian cancels the
1/k_perp of the measure exactly.  For omega = i*xi the Wick-rotated path is
the evanescent segment alone, started at t = lo = xi where k_par = 0; every
factor is real there, and the tensor comes out real (Schwarz reflection
principle).  On both axes
G = (i/8pi) * (propagating - i * evanescent), with no propagating term on
the imaginary axis.

The three kernels of one segment share one reflection matrix, so each
segment of each point is one three-component integral, and all of them run
as owners of one lockstep quadrature (`quadrature.integrate_batch`): two
per height of a scan on the real axis, one per (z, xi) of a batch on the
imaginary axis.  Every round evaluates the reflection matrix once, on the
nodes of all new panels, and each node serves all three kernels.
`scattering_greens_numeric` is the one-point case.  The nonresonant shift
integrates `_kernels` over s = k_perp/(i xi) instead.

A reflection matrix that does not depend on k_par leaves elementary
integrals, so the tensor of every such medium has a closed form
(`closed_form_greens`), over arrays of heights and frequencies on either
axis: the two ideal mirrors (`greens_perfect_conductor`,
`greens_nonreciprocal_mirror`), the constant test medium and the axion
half-space at epsilon = 1.  The closed forms are the oracles of the
quadrature, and `atomics.greens_grid` takes one for every medium that
states its `constant_reflection`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .media import PerfectConductor, PerfectNonreciprocalMirror, ReflectionMatrix
from .quadrature import QuadratureConfig, QuadratureError, integrate_batch
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
    one point (`point`).  quad_error and neval are per point, summed over
    the k-plane segments (quad_error over the kernels too); a closed form
    has zero of both.
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
    q = np.asarray(omega)
    if not np.all(np.isfinite(q) & (q != 0)):
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
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


def _kernels(medium, omega, kp, kpar, weight=1.0):
    """The radial kernels (xx, zz, xy) at nodes of (complex) k_perp kp and
    (real) k_par kpar, each times `weight` (the k-quadrature passes
    e^{2 i k_perp z} times its Jacobian); omega and weight are scalars or
    arrays aligned with the nodes."""
    r = medium.reflection(omega, kpar)
    return (weight * (r.r_ss - r.r_pp * kp ** 2 / omega ** 2),
            weight * 2.0 * r.r_pp * kpar ** 2 / omega ** 2,
            weight * (r.r_sp + r.r_ps) * kp / omega)


def numeric_greens(z, omega, medium,
                   config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor by k-quadrature at every height z[j] > 0, at one real
    omega > 0 or at omega = i*xi[j] (finite xi > 0) aligned with z, in one
    lockstep call.

    Every point integrates the three kernels on the evanescent segment,
    k_perp = i*t, t in [lo, inf), k_par = sqrt(t^2 + omega^2), measure
    -i dt, with lo = xi on the imaginary axis and 0 on the real one; the
    segment is integrated over x in (0, 1], t = lo + (1 - x)/(2 z x).  A
    real omega first takes the propagating segment, k_perp = t in (0, q],
    k_par = sqrt(q^2 - t^2).  Owner S*j + s integrates the three
    kernels on segment s of point j, with S = 2 segments on the real axis
    and 1 on the imaginary one.  A failure's `owner` is the index j.
    """
    z = _heights(z)
    cfg = config or QuadratureConfig()
    w = np.asarray(omega, dtype=complex)
    if w.ndim == 0 and w.imag == 0 and 0 < w.real < np.inf:
        w = complex(w)  # a scalar: per-node omega arrays slow the reflection
        q = w.real
        segments, lo, q2 = 2, np.zeros(z.size), np.full(z.size, q * q)
    elif np.all((w.real == 0) & (w.imag > 0) & (w.imag < np.inf)):
        z, xi = np.broadcast_arrays(z, np.atleast_1d(w.imag))
        q, segments, lo, q2 = 0.0, 1, xi, -xi ** 2
        w = 1j * xi
    else:
        raise ValueError(f"need one finite real omega > 0, or i*xi with finite "
                         f"xi > 0, got {omega}")
    owner_z = np.repeat(z, segments)
    owner_q2 = np.repeat(q2, segments)
    owner_lo = np.repeat(lo, segments)
    prop = np.tile(np.arange(segments) < segments - 1, z.size)
    # k_perp = unit * t and k_par^2 = omega^2 - k_perp^2, with unit 1 on
    # the propagating segment and i on the evanescent one
    owner_unit = np.where(prop, 1.0 + 0j, 1j)
    owner_sign = np.where(prop, -1.0, 1.0)

    def f(x, owner):
        # the propagating segment integrates t = x over [0, q]; the
        # evanescent one maps t in [lo, inf) onto x in (0, 1]
        p = prop[owner]
        zo = owner_z[owner]
        t = np.where(p, x, owner_lo[owner] + (1.0 - x) / (2.0 * zo * x))
        kp = t * owner_unit[owner]
        kpar2 = t * t * owner_sign[owner] + owner_q2[owner]
        jac = np.where(p, 1.0, 1.0 / (2.0 * zo * x * x))
        return np.stack(_kernels(
            medium, w[owner] if segments == 1 else w, kp,
            np.sqrt(np.maximum(kpar2, 0.0)), jac * np.exp(2j * kp * zo)), axis=-1)

    try:
        values, errors, neval = integrate_batch(
            f, np.zeros(prop.size), np.where(prop, q, 1.0), rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    except (ArithmeticError, QuadratureError) as exc:
        if getattr(exc, "owner", None) is not None:
            exc.owner //= segments
        raise
    pref = 1j / (8 * np.pi)
    v = values.reshape(-1, segments, 3)
    e = errors.reshape(-1, segments, 3)
    g = pref * ((v[:, 0] if segments == 2 else 0.0) - 1j * v[:, -1])
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2],
                         abs(pref) * (e[:, :, 0] + e[:, :, 1] + e[:, :, 2]).sum(axis=1),
                         neval.reshape(-1, segments).sum(axis=1))


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              config: QuadratureConfig | None = None) -> PlanarTensors:
    """Quadrature evaluation of the scattering tensor at one point."""
    return numeric_greens(point.z, point.frequency, medium, config).point(0)
