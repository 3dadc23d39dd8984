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
integral on both frequency axes, as segments of one k-plane path, and
evaluates the medium's reflection at the vacuum k_perp of each node.  On
the evanescent segment k_perp = i*t, the measure contributes -i dt,
k_par^2 = t^2 + omega^2, and e^{-2 t z} damps the kernels.  This segment
runs to t = inf, through the map t = lo + (1 - x)/(2 z x) of x in (0, 1],
with Jacobian 1/(2 z x^2) (QUADPACK's infinite-range transform), so no
cutoff enters the tensor.  For real omega t runs from lo = 0, and a
propagating segment comes first: k_perp = t in (0, q], whose Jacobian
cancels the 1/k_perp of the measure exactly.  For omega = i*xi the
Wick-rotated path is the evanescent segment alone, started at t = lo = xi
where k_par = 0; every factor is real there, and the tensor comes out real
(Schwarz reflection principle).  There e^{-2 xi z} leaves the integral as
one factor and k_par^2 = u (u + 2 xi) with u = t - xi, so the rounding of
t never meets 2 xi z.  On both axes
G = (i/8pi) * (propagating - i * evanescent), with no propagating term on
the imaginary axis.

On the real axis a medium's own lightline k_par = n omega (its
`branch_point`, n = sqrt(eps mu)) is a square-root branch point of k_2 and
so of every coefficient: at t = q sqrt(n^2 - 1) on the evanescent segment
for n > 1, at t = q sqrt(1 - n^2) on the propagating one for n < 1.
Bisection would close in on that kink blindly; instead the segment that
holds it runs over u in [0, 2] (`_branch_map`), its variable quadratic in
u - 1 on either side of the kink, so the kink sits on the first bisection
u = 1 and the integrand is smooth on both halves, which still share one
tolerance.  The imaginary axis has no branch point: there k_2^2 < 0.

The three kernels of one segment share one reflection matrix, so each
segment of each point is one three-component integral, and all of them run
as owners of one lockstep quadrature (`quadrature.integrate_batch`): two
per height of a scan on the real axis, one per (z, xi) of a batch on the
imaginary axis.  Every round evaluates the reflection matrix once, on the
nodes of all new panels, and each node serves all three kernels, written
into one [nodes, 3] array.  `scattering_greens_numeric` is the one-point
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


def _kernels(medium, omega, kp, kpar2, weight=None):
    """The radial kernels at nodes of (complex) vacuum k_perp kp with real
    k_par^2 = kpar2, as the columns (xx, zz, xy) of one [M, 3] array, each
    times `weight` if one is given (the k-quadrature passes e^{2 i k_perp z}
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


def _branch_map(u, yb, b):
    """A segment y in [0, b] whose integrand has a square-root branch point
    at y = yb, taken over u in [0, 2]: y = yb u (2 - u) below u = 1 and
    yb + (b - yb)(u - 1)^2 above.  Returns (y, dy/du); y - yb goes as
    (u - 1)^2 on both halves, so sqrt|y - yb| is smooth on each, and
    u = 1, where the first bisection of [0, 2] falls, is a panel edge."""
    s = u - 1.0
    up = s > 0
    y = np.where(up, yb + (b - yb) * (s * s), yb * u * (1.0 - s))
    return y, 2.0 * np.abs(s) * np.where(up, b - yb, yb)


def numeric_greens(z, omega, medium,
                   config: QuadratureConfig | None = None) -> PlanarTensors:
    """Scattering tensor by k-quadrature at every height z[j] > 0, at one real
    omega > 0 or at omega = i*xi[j] (finite xi > 0) aligned with z, in one
    lockstep call.

    The segments and their variables are those of the module docstring:
    the evanescent segment over x in (0, 1] on both axes, after the
    propagating one over t in (0, q] for real omega, and on the real axis
    the segment that holds the medium's `branch_point` over u in [0, 2]
    (`_branch_map`).  Owner S*j + s integrates the three kernels on segment
    s of point j, with S = 2 segments on the real axis and 1 on the
    imaginary one.  A failure's `owner` is the index j.
    """
    z = _heights(z)
    cfg = config or QuadratureConfig()
    w = np.asarray(omega, dtype=complex)
    if w.ndim == 0 and w.imag == 0 and 0 < w.real < np.inf:
        q = w = float(w.real)  # a real scalar: omega arrays slow the kernels
        segments = 2
        prop = np.tile([True, False], z.size)
        two_z = 2.0 * np.repeat(z, 2)
        # the segments' own variables run from 0 to b: t in [0, q] on the
        # propagating one, x in (0, 1] on the evanescent one
        owner_b = np.tile([q, 1.0], z.size)
        n = getattr(medium, "branch_point", None)
        on_prop, on_evan = n is not None and n < 1, n is not None and n > 1
        if on_evan:
            yb = np.repeat(1.0 / (1.0 + 2.0 * z * (q * math.sqrt(n * n - 1.0))), 2)
        elif on_prop:
            yb = np.full(prop.size, q * math.sqrt(1.0 - n * n))
        # k_perp = unit * t and k_par^2 = q^2 + sign * t^2, with unit 1 on
        # the propagating segment and i on the evanescent one
        owner_unit = np.where(prop, 1.0 + 0j, 1j)
        owner_sign = np.where(prop, -1.0, 1.0)

        def f(u, owner):
            p = prop[owner]
            tz = two_z[owner]
            # mapped on every node; only the segment that holds the branch
            # point reads the map, the other its plain variable u
            y, dy = (_branch_map(u, yb[owner], owner_b[owner])
                     if on_prop or on_evan else (u, 1.0))
            yp, dyp = (y, dy) if on_prop else (u, 1.0)
            ye, dye = (y, dy) if on_evan else (u, 1.0)
            t = np.where(p, yp, (1.0 - ye) / (tz * ye))
            jac = np.where(p, dyp, dye / (tz * ye * ye))
            kp = t * owner_unit[owner]
            return _kernels(medium, w, kp, t * t * owner_sign[owner] + q * q,
                            jac * np.exp(1j * kp * tz))

        upper = np.tile([2.0 if on_prop else q, 2.0 if on_evan else 1.0], z.size)
        scale = np.ones(z.size)
    elif np.all((w.real == 0) & (w.imag > 0) & (w.imag < np.inf)):
        z, xi = np.broadcast_arrays(z, np.atleast_1d(w.imag))
        segments = 1
        w = 1j * xi

        def f(x, owner):
            zo = z[owner]
            xo = xi[owner]
            u = (1.0 - x) / (2.0 * zo * x)
            return _kernels(medium, w[owner], 1j * (xo + u), u * (u + 2.0 * xo),
                            np.exp(-2.0 * u * zo) / (2.0 * zo * x * x))

        upper = np.ones(z.size)
        scale = np.exp(-2.0 * xi * z)
    else:
        raise ValueError(f"need one finite real omega > 0, or i*xi with finite "
                         f"xi > 0, got {omega}")

    try:
        values, errors, neval = integrate_batch(
            f, np.zeros(upper.size), upper, rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol, max_depth=cfg.max_depth, max_panels=cfg.max_panels)
    except (ArithmeticError, QuadratureError) as exc:
        if getattr(exc, "owner", None) is not None:
            exc.owner //= segments
        raise
    pref = 1j / (8 * np.pi)
    v = values.reshape(-1, segments, 3)
    e = errors.reshape(-1, segments, 3)
    g = pref * ((v[:, 0] if segments == 2 else 0.0) - 1j * v[:, -1]) * scale[:, None]
    err = abs(pref) * scale * (e[:, :, 0] + e[:, :, 1] + e[:, :, 2]).sum(axis=1)
    return PlanarTensors(g[:, 0], g[:, 1], g[:, 2], err,
                         neval.reshape(-1, segments).sum(axis=1))


def scattering_greens_numeric(point: EvaluationPoint, medium,
                              config: QuadratureConfig | None = None) -> PlanarTensors:
    """Quadrature evaluation of the scattering tensor at one point."""
    return numeric_greens(point.z, point.frequency, medium, config).point(0)
