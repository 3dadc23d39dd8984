"""Vectorized globally adaptive Gauss-Kronrod quadrature.

The k- and s-integrals in this package are one-dimensional, smooth on
their paths, and have to run thousands of times per scan, so
the engine batches all pending panel evaluations into single vectorized
calls: the integrand must accept an ndarray of abscissae and return an
ndarray of (possibly complex) values of the same length, or one row of K
components per abscissa.

Error control is the usual |K15 - G7| per panel, summed globally, against
rel_tol * |result|, for each component.  Panels refine to at
most `max_depth` bisection levels (default 30); exceeding the cap or the
panel budget raises QuadratureError rather than returning a silently bad
number, and so does a non-finite integrand value or error estimate, at
once.

`integrate_batch` runs N independent integrals ("owners") in lockstep:
each refinement round makes one integrand call f(x, owner) on the nodes of
every new panel of every owner, so the per-call cost of the integrand (one
reflection-matrix evaluation, say) is paid once per round instead of once
per integral per round.  An owner may have K components that share its
panels, as in QUADPACK-style vector quadrature: several integrands over
one interval cost one set of nodes.  Each owner applies the same rule with
its own tolerance and depth cap, and drops out of the rounds once every
component has converged.  Every owner starts on one shared mesh of
panels, fractions of its interval (QUADPACK QAGP's breakpoints): [a, b]
itself by default, `HALF_LINE_MESH` for a half-line mapped onto (0, 1].
`max_panels` bounds the live panels of the whole call: owners that would
overflow it wait in a queue and restart later on their start mesh, so a
call's memory does not grow with N.  `integrate` is the one-owner,
one-component case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

__all__ = ["HALF_LINE_MESH", "QuadratureConfig", "QuadratureError", "QuadResult",
           "integrate", "integrate_batch"]


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance.

    `owner` is the index of the failing integral in a batched call (None
    where that is not known).
    """

    def __init__(self, message, owner=None):
        super().__init__(message)
        self.owner = owner


# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1]:
# the doubles nearest the exact constants, from scripts/gauss_kronrod.py.
_K15_NODES = np.array([
    -0.99145537112081261, -0.94910791234275849, -0.8648644233597691,
    -0.74153118559939446, -0.58608723546769115, -0.40584515137739718,
    -0.20778495500789848, 0, 0.20778495500789848,
    0.40584515137739718, 0.58608723546769115, 0.74153118559939446,
    0.8648644233597691, 0.94910791234275849, 0.99145537112081261,
])
_K15_WEIGHTS = np.array([
    0.022935322010529224, 0.063092092629978558, 0.10479001032225019,
    0.14065325971552592, 0.16900472663926791, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.16900472663926791, 0.14065325971552592,
    0.10479001032225019, 0.063092092629978558, 0.022935322010529224,
])
# Gauss-7 weights placed at the shared nodes (odd indices), zero elsewhere.
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = [
    0.1294849661688697, 0.27970539148927664, 0.38183005050511892,
    0.4179591836734694, 0.38183005050511892, 0.27970539148927664,
    0.1294849661688697,
]

# The start mesh of a half-line mapped onto x in (0, 1] with infinity at
# x = 0.  Bisection from [0, 1] reaches these panels at every height of the
# k-integral (`greens.numeric_greens`), so starting on them skips its first
# four rounds.  The s-integral (`atomics.nonresonant_shift_grid`) runs on
# the same map; at its easiest heights bisection from [0, 1] would end on
# coarser panels, at the same 75 evaluations.
HALF_LINE_MESH = (0.0, 0.0625, 0.125, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and caps for the quadratures.

    rel_tol      : relative tolerance of each point's k-integral
    xi_rel_tol   : relative tolerance of the nonresonant shift's s-integral
    max_depth    : bisection cap per panel
    max_panels   : hard budget on simultaneously live panels of one
                   quadrature call, shared by all its owners (see
                   integrate_batch)
    kappa_cutoff : affects no result; kept only as perfbench/make_reference.py reads it
    xi_cutoff    : affects no result; kept only as perfbench/make_reference.py reads it
    """

    rel_tol: float = 1e-9
    xi_rel_tol: float = 1e-10
    max_depth: int = 30
    max_panels: int = 20000
    kappa_cutoff: float = 40.0
    xi_cutoff: float = 50.0

    def __post_init__(self):
        for name in ("rel_tol", "xi_rel_tol", "kappa_cutoff", "xi_cutoff"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_depth", "max_panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def tighter(self, factor: float) -> "QuadratureConfig":
        """Same config with both relative tolerances multiplied by `factor`."""
        return replace(self, rel_tol=self.rel_tol * factor,
                       xi_rel_tol=self.xi_rel_tol * factor)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    neval: int


def _panels(f, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """Evaluate K15/G7 on a batch of panels [a_i, b_i] in one call f(x, owner).

    Returns the integrand's trailing shape (() or (K,)) and every panel's
    K15 sum and |K15 - G7| as [panels, K] arrays.  einsum reduces each row
    on its own, without BLAS, so a panel's sums do not depend on the other
    panels of the call; complex values are summed as their real and
    imaginary parts, a float view, which gives the same sums faster.  An
    exception from f whose `owner` names a node of x is re-pointed at the
    integral that node belongs to.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _K15_NODES[None, :]
    node_owner = np.repeat(owner, x.shape[1])
    try:
        y = np.asarray(f(x.ravel(), node_owner))
    except (ArithmeticError, QuadratureError) as exc:
        if getattr(exc, "owner", None) is not None:
            exc.owner = int(node_owner[exc.owner])
        raise
    shape = y.shape[1:]
    cplx = np.iscomplexobj(y)
    if cplx:
        y = np.ascontiguousarray(y, dtype=complex).view(float)
    y = y.reshape(x.shape + (-1,))

    def rule(weights):
        s = np.einsum("pnk,n->pk", y, weights)
        return half[:, None] * (s.view(complex) if cplx else s)

    k15 = rule(_K15_WEIGHTS)
    return shape, k15, np.abs(k15 - rule(_G7_WEIGHTS))


def integrate(f, a: float, b: float, rel_tol: float = 1e-9, max_depth: int = 30,
              max_panels: int = 20000) -> QuadResult:
    """Integrate f over [a, b] with global adaptive bisection.

    f must be vectorized: f(x: ndarray) -> ndarray (real or complex).
    Returns the integral with an error estimate and the evaluation count.
    This is integrate_batch with one owner.
    """
    values, errors, neval = integrate_batch(lambda x, owner: f(x), [a], [b], rel_tol,
                                            max_depth, max_panels)
    return QuadResult(complex(values[0]), float(errors[0]), int(neval[0]))


def integrate_batch(f, a, b, rel_tol: float = 1e-9, max_depth: int = 30,
                    max_panels: int = 20000, mesh=(0.0, 1.0)):
    """Integrate N independent integrals, owner i over [a[i], b[i]], in lockstep.

    f(x, owner) -> ndarray is called once per refinement round; x holds the
    nodes of every panel evaluated in that round and owner[j] the integral
    x[j] belongs to.  f returns [M] values, or [M, K] for K components that
    share one panel set.  Each owner follows one rule on its own: split
    every panel that exceeds, in some component, that component's fair
    share tol_k / (2 * panels) of its tolerance rel_tol * |sum_k|, until
    every component's summed |K15 - G7| is within its tolerance; no panel
    deeper than `max_depth` bisections.

    Every owner starts on the panels between the fractions `mesh` of its
    interval, t_0 = 0 < t_1 < ... < t_m = 1 (QUADPACK QAGP's breakpoints,
    shared by all owners; the default is [a, b] itself).  A start panel
    counts at its dyadic level, the smallest d with 2^-d <= t_(j+1) - t_j,
    so no panel made by bisection is narrower than 2^-max_depth of [a, b].

    `max_panels` bounds the live panels of the whole call, so memory does
    not grow with N.  Owners start in index order as the budget allows, each
    with its m start panels; when a round would exceed it, the highest-index
    live owners are evicted back to the queue, to restart later on their
    start mesh (queued owners start only in rounds that evict none).  The
    lowest-index live owner is never evicted, so it keeps the standalone
    cap: it fails only if it alone would exceed `max_panels`.

    Owners are deterministic, each keeps its panels in one order, and every
    panel and every owner is reduced on its own (einsum and reduceat, no
    BLAS), so an owner's value, error and evaluation count equal those of
    its one-owner call bit for bit, whatever else runs.  A failure raises
    QuadratureError; its `owner` is the failing integral, and an
    ArithmeticError or QuadratureError from f that names a node of x in
    `owner` gets that node's integral instead.

    Returns (values complex[N], errors float[N], neval int[N]), values and
    errors [N, K] for K-component integrands.
    """
    QuadratureConfig(rel_tol=rel_tol, max_depth=max_depth, max_panels=max_panels)
    lo0 = np.atleast_1d(np.asarray(a, dtype=float))
    hi0 = np.atleast_1d(np.asarray(b, dtype=float))
    if lo0.ndim != 1 or lo0.shape != hi0.shape:
        raise ValueError(f"need matching 1-d bounds, got shapes {lo0.shape}, {hi0.shape}")
    if not np.all(hi0 > lo0):
        i = int(np.argmin(hi0 > lo0))
        raise ValueError(f"need b > a, got [{lo0[i]}, {hi0[i]}] for integral {i}")
    t = np.asarray(mesh, dtype=float)
    if not (t.ndim == 1 and t.size >= 2 and t[0] == 0 and t[-1] == 1
            and np.all(t[1:] > t[:-1])):
        raise ValueError(f"need a mesh rising from 0 to 1, got {mesh}")
    m = t.size - 1
    start_depth = 1 - np.frexp(np.diff(t))[1]  # w = f 2^e, 1/2 <= f < 1: d = 1 - e
    n = lo0.size
    neval = np.zeros(n, dtype=int)
    if n == 0:
        return np.zeros(0, dtype=complex), np.zeros(0), neval
    if max_panels < m:
        raise QuadratureError(f"panel budget {max_panels} exhausted in integral 0 "
                              f"(its start mesh has {m} panels)", owner=0)
    pending = np.arange(n)  # queued owners, ascending, all above the live ones
    # live panels, sorted by owner; each owner's panels in a standalone order
    own = np.empty(0, dtype=int)
    lo = hi = np.empty(0)
    vals = errs = None  # [panels, K], shaped by the first round
    depth = np.empty(0, dtype=int)
    keep = split = np.empty(0, dtype=int)
    admit, pending = pending[:max_panels // m], pending[max_panels // m:]

    while True:
        # this round's panels: both halves of every split panel, then the
        # start panels of every admitted owner, (1 - t) a + t b with both
        # ends exact
        mid = 0.5 * (lo[split] + hi[split])
        ends = lo0[admit, None] * (1.0 - t) + hi0[admit, None] * t
        new_own = np.concatenate([own[split], own[split], np.repeat(admit, m)])
        new_lo = np.concatenate([lo[split], mid, ends[:, :-1].ravel()])
        new_hi = np.concatenate([mid, hi[split], ends[:, 1:].ravel()])
        new_depth = np.concatenate([depth[split] + 1, depth[split] + 1,
                                    np.tile(start_depth, admit.size)])
        shape, new_vals, new_errs = _panels(f, new_lo, new_hi, new_own)
        neval += 15 * np.bincount(new_own, minlength=n)
        if vals is None:  # the first round fixes the number of components
            vals, errs = new_vals[:0], new_errs[:0]
            values = np.zeros((n, new_vals.shape[1]), dtype=complex)
            errors = np.zeros(values.shape)

        # kept panels, then left halves, then right halves, per owner
        own = np.concatenate([own[keep], new_own])
        order = np.argsort(own, kind="stable")
        own = own[order]
        lo = np.concatenate([lo[keep], new_lo])[order]
        hi = np.concatenate([hi[keep], new_hi])[order]
        depth = np.concatenate([depth[keep], new_depth])[order]
        vals = np.concatenate([vals[keep], new_vals])[order]
        errs = np.concatenate([errs[keep], new_errs])[order]

        starts = np.flatnonzero(np.concatenate(([True], own[1:] != own[:-1])))
        counts = np.diff(np.append(starts, own.size))
        owners = own[starts]
        total = np.add.reduceat(vals, starts)
        err_total = np.add.reduceat(errs, starts)
        finite = (np.isfinite(total) & np.isfinite(err_total)).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureError(
                f"non-finite integrand value or error estimate in integral "
                f"{owners[i]} (sum={total[i]}, err={err_total[i]})", owner=int(owners[i]))
        tol = rel_tol * np.abs(total)
        done = (err_total <= tol).all(axis=1)
        values[owners[done]] = total[done]
        errors[owners[done]] = err_total[done]
        if done.all() and pending.size == 0:
            return values.reshape((n,) + shape), errors.reshape((n,) + shape), neval

        # the split rule, per owner: the panels above their fair share in
        # some component.  A live owner always splits its worst panel: some
        # component has err_total > tol, so its largest panel error is at
        # least err_total / panels.
        live = np.repeat(~done, counts)
        mask = live & (errs > np.repeat(tol / (2.0 * counts[:, None]), counts,
                                        axis=0)).any(axis=1)
        deep = mask & (depth >= max_depth)
        if deep.any():
            i = int(np.searchsorted(owners, own[np.argmax(deep)]))
            raise QuadratureError(
                f"panel refinement exceeded {max_depth} levels in integral "
                f"{owners[i]} (err={err_total[i]}, tol={tol[i]})", owner=int(owners[i]))

        # the budget: keep the longest run of live owners, in index order,
        # whose panels after this round fit; the first one must fit alone
        admit = pending[:0]
        if own.size + np.count_nonzero(mask) > max_panels or pending.size:
            used = np.cumsum(np.where(done, 0, counts + np.add.reduceat(mask, starts,
                                                                        dtype=int)))
            running = ~done & (used <= max_panels)
            evicted = owners[~done & ~running]
            if evicted.size:
                i = int(np.argmin(done))
                if not running[i]:
                    raise QuadratureError(
                        f"panel budget {max_panels} exhausted in integral {owners[i]} "
                        f"(err={err_total[i]}, tol={tol[i]})", owner=int(owners[i]))
                neval[evicted] = 0
                pending = np.concatenate([evicted, pending])
                live = np.repeat(running, counts)
                mask &= live
            else:
                # queued owners start only in a round that evicted none, so
                # an evicted owner does not restart at once into the same
                # shortage
                room = (max_panels - int(used[-1])) // m
                admit, pending = pending[:room], pending[room:]
        split = np.flatnonzero(mask)
        keep = np.flatnonzero(live & ~mask)
