"""Vectorized globally adaptive Gauss-Kronrod quadrature.

The k- and xi-integrals in this package are one-dimensional, smooth away
from the lightline split, and have to run thousands of times per scan, so
the engine batches all pending panel evaluations into single vectorized
calls: the integrand must accept an ndarray of abscissae and return an
ndarray of (possibly complex) values of the same shape.

Error control is the usual |K15 - G7| per panel, summed globally, against
max(rel_tol * |result|, abs_tol).  Panels refine to at most `max_depth`
bisection levels (default 30); exceeding the cap or the panel budget
raises QuadratureError rather than returning a silently bad number, and so
does a non-finite integrand value or error estimate, at once.

`integrate` runs one integral.  `integrate_batch` runs N independent
integrals ("owners") in lockstep: each refinement round makes one integrand
call f(x, owner) on the nodes of every live panel of every owner, so the
per-call cost of the integrand (one reflection-matrix evaluation, say) is
paid once per round instead of once per integral per round.  Each owner
applies exactly integrate's rule, with its own tolerance, depth cap and
panel budget, and drops out of the rounds once it has converged.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureConfig", "QuadratureError", "QuadResult", "integrate",
           "integrate_batch"]


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1].
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights placed at the shared nodes (odd indices), zero elsewhere.
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and caps for the nested quadratures.

    rel_tol      : relative tolerance of each k-plane segment integral
    xi_rel_tol   : relative tolerance of the imaginary-frequency integral
    abs_tol      : absolute floor (identically-zero channels stop at once)
    max_depth    : bisection cap per panel
    max_panels   : hard budget on simultaneously live panels
    kappa_cutoff : evanescent truncation, kappa_max = kappa_cutoff / (2 z)
    xi_cutoff    : xi-integral substitution range, u in (0, xi_cutoff]
    """

    rel_tol: float = 1e-9
    xi_rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_depth: int = 30
    max_panels: int = 20000
    kappa_cutoff: float = 40.0
    xi_cutoff: float = 50.0

    def __post_init__(self):
        for name in ("rel_tol", "xi_rel_tol", "kappa_cutoff", "xi_cutoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise ValueError(f"abs_tol must be >= 0 and finite, got {self.abs_tol}")
        for name in ("max_depth", "max_panels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def tighter(self, factor: float) -> "QuadratureConfig":
        """Same config with both relative tolerances multiplied by `factor`."""
        return QuadratureConfig(
            rel_tol=self.rel_tol * factor,
            xi_rel_tol=self.xi_rel_tol * factor,
            abs_tol=self.abs_tol,
            max_depth=self.max_depth,
            max_panels=self.max_panels,
            kappa_cutoff=self.kappa_cutoff,
            xi_cutoff=self.xi_cutoff,
        )


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    neval: int


def _panels(f, a: np.ndarray, b: np.ndarray, owner=None, lone: bool = False):
    """Evaluate K15/G7 on a batch of panels [a_i, b_i].

    With `owner` the integrand is called as f(x, owner of each node).
    numpy rounds a matrix-vector product differently for a one-row matrix
    than for a taller one, and integrate's first round has one panel; so
    `lone` reduces each panel as a one-row product of its own, which keeps
    a lockstep owner's first panel equal to integrate's.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _K15_NODES[None, :]
    if owner is None:
        y = f(x.ravel())
    else:
        y = f(x.ravel(), np.repeat(owner, x.shape[1]))
    y = np.asarray(y).reshape(x.shape)
    if lone:
        y = y[:, None, :]
        k15 = half * (y @ _K15_WEIGHTS)[:, 0]
        g7 = half * (y @ _G7_WEIGHTS)[:, 0]
    else:
        k15 = half * (y @ _K15_WEIGHTS)
        g7 = half * (y @ _G7_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _check_finite(total, err_total, where: str = ""):
    if not (cmath.isfinite(total) and math.isfinite(err_total)):
        raise QuadratureError(f"non-finite integrand value or error estimate{where} "
                              f"(sum={total}, err={err_total})")


def integrate(f, a: float, b: float, rel_tol: float = 1e-9, abs_tol: float = 0.0,
              max_depth: int = 30, max_panels: int = 20000) -> QuadResult:
    """Integrate f over [a, b] with global adaptive bisection.

    f must be vectorized: f(x: ndarray) -> ndarray (real or complex).
    Returns the integral with an error estimate and the evaluation count.
    """
    if not (b > a):
        raise ValueError(f"need b > a, got [{a}, {b}]")
    lo = np.array([a], dtype=float)
    hi = np.array([b], dtype=float)
    depth = np.array([0], dtype=int)
    vals, errs = _panels(f, lo, hi)
    neval = 15

    while True:
        total = vals.sum()
        err_total = float(errs.sum())
        _check_finite(total, err_total)
        tol = max(rel_tol * abs(total), abs_tol)
        if err_total <= tol:
            return QuadResult(complex(total), err_total, neval)

        # Split every panel holding more than its fair share of the excess;
        # always include the worst one so progress is guaranteed.
        thresh = tol / (2.0 * len(errs)) if tol > 0 else 0.0
        mask = errs > thresh
        mask[np.argmax(errs)] = True
        if np.any(depth[mask] >= max_depth):
            raise QuadratureError(
                f"panel refinement exceeded {max_depth} levels "
                f"(err={err_total:.3e}, tol={tol:.3e})")
        if len(errs) + int(mask.sum()) > max_panels:
            raise QuadratureError(
                f"panel budget {max_panels} exhausted (err={err_total:.3e}, tol={tol:.3e})")

        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        new_depth = np.concatenate([depth[mask], depth[mask]]) + 1
        new_vals, new_errs = _panels(f, new_lo, new_hi)
        neval += 15 * len(new_lo)

        keep = ~mask
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        depth = np.concatenate([depth[keep], new_depth])
        vals = np.concatenate([np.atleast_1d(vals[keep]), np.atleast_1d(new_vals)])
        errs = np.concatenate([errs[keep], new_errs])


def _owner_sums(vals, errs, starts, counts):
    """Each owner's panel sums, reduced exactly as integrate's 1-d sums.

    Rows of equal length reduce along the last axis the same way a 1-d
    array does, so owners are summed in groups of equal panel count.
    """
    total = np.empty(starts.size, dtype=vals.dtype)
    err_total = np.empty(starts.size)
    for m in np.unique(counts):
        sel = np.flatnonzero(counts == m)
        idx = starts[sel, None] + np.arange(m)
        total[sel] = vals[idx].sum(axis=1)
        err_total[sel] = errs[idx].sum(axis=1)
    return total, err_total


def integrate_batch(f, a, b, rel_tol: float = 1e-9, abs_tol: float = 0.0,
                    max_depth: int = 30, max_panels: int = 20000):
    """Integrate N independent integrals, owner i over [a[i], b[i]], in lockstep.

    f(x, owner) -> ndarray is called once per refinement round; x holds the
    nodes of every live panel and owner[j] the integral x[j] belongs to.
    Each owner follows integrate's rule, tolerance test, depth cap and
    panel budget on its own, keeps its panels in integrate's order and sums
    them the way integrate does, so its value, error and evaluation count
    match a standalone integrate call.  They match bit for bit wherever
    numpy rounds each row of a matrix-vector product independently of the
    other rows (with OpenBLAS, for complex integrands).  A failure in any
    owner raises QuadratureError naming it.

    Returns (values complex[N], errors float[N], neval int[N]).
    """
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"need matching 1-d bounds, got shapes {lo.shape}, {hi.shape}")
    if not np.all(hi > lo):
        i = int(np.argmin(hi > lo))
        raise ValueError(f"need b > a, got [{lo[i]}, {hi[i]}] for integral {i}")
    n = lo.size
    values = np.zeros(n, dtype=complex)
    errors = np.zeros(n)
    neval = np.full(n, 15)
    # live panels, sorted by owner; each owner's panels in integrate's order
    own = np.arange(n)
    depth = np.zeros(n, dtype=int)
    vals, errs = _panels(f, lo, hi, own, lone=True)

    while own.size:
        starts = np.flatnonzero(np.concatenate(([True], own[1:] != own[:-1])))
        counts = np.diff(np.append(starts, own.size))
        owners = own[starts]
        total, err_total = _owner_sums(vals, errs, starts, counts)
        finite = np.isfinite(total) & np.isfinite(err_total)
        if not finite.all():
            i = int(np.argmin(finite))
            _check_finite(total[i], err_total[i], f" in integral {owners[i]}")
        tol = np.maximum(rel_tol * np.abs(total), abs_tol)
        done = err_total <= tol
        values[owners[done]] = total[done]
        errors[owners[done]] = err_total[done]
        if done.all():
            break

        # integrate's split rule, per owner: the fair-share excess, plus the
        # first panel of largest error
        thresh = tol / (2.0 * counts)
        live = np.repeat(~done, counts)
        mask = live & (errs > np.repeat(thresh, counts))
        hit = np.flatnonzero(errs == np.repeat(np.maximum.reduceat(errs, starts), counts))
        first = hit[np.concatenate(([True], own[hit[1:]] != own[hit[:-1]]))]
        mask[first[~done]] = True

        deep = mask & (depth >= max_depth)
        nsplit = np.add.reduceat(mask, starts, dtype=int)
        full = counts + nsplit > max_panels
        if deep.any() or full.any():
            i = (np.searchsorted(owners, own[np.argmax(deep)]) if deep.any()
                 else int(np.argmax(full)))
            what = (f"panel refinement exceeded {max_depth} levels" if deep.any()
                    else f"panel budget {max_panels} exhausted")
            raise QuadratureError(f"{what} in integral {owners[i]} "
                                  f"(err={err_total[i]:.3e}, tol={tol[i]:.3e})")

        split = np.flatnonzero(mask)
        keep = np.flatnonzero(live & ~mask)
        mid = 0.5 * (lo[split] + hi[split])
        new_own = np.concatenate([own[split], own[split]])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _panels(f, new_lo, new_hi, new_own)
        neval += 15 * np.bincount(new_own, minlength=n)

        # kept panels, then left halves, then right halves, per owner
        own = np.concatenate([own[keep], new_own])
        order = np.argsort(own, kind="stable")
        own = own[order]
        lo = np.concatenate([lo[keep], new_lo])[order]
        hi = np.concatenate([hi[keep], new_hi])[order]
        depth = np.concatenate([depth[keep], depth[split] + 1, depth[split] + 1])[order]
        vals = np.concatenate([vals[keep], new_vals])[order]
        errs = np.concatenate([errs[keep], new_errs])[order]
    return values, errors, neval
