"""Vectorized globally adaptive Gauss-Kronrod quadrature.

The k- and s-integrals in this package are one-dimensional, smooth on
their paths, and have to run thousands of times per scan, so
the engine batches all pending panel evaluations into single vectorized
calls: the integrand must accept an ndarray of abscissae and return an
ndarray of (possibly complex) values of the same length, or one row of K
components per abscissa.

Error control is the usual |K15 - G7| per panel, summed globally, against
rel_tol * |result|, for each component.  Panels refine to at most
MAX_DEPTH = 30 bisection levels: a panel narrower than 2^(1 - MAX_DEPTH)
of its integral's interval does not split.  Exceeding that cap or the
panel budget raises QuadratureError rather than returning a silently bad
number, and so does a non-finite integrand value or error estimate, at
once.  Bounds that are not finite, or so large that a panel's width or
midpoint would overflow, are refused with ValueError before the
integrand is called.

`integrate_batch` runs N independent integrals ("owners") in lockstep:
each refinement round makes one integrand call f(x, owner) on the nodes of
every new panel of every owner, so the per-call cost of the integrand (one
reflection-matrix evaluation, say) is paid once per round instead of once
per integral per round.  An owner may have K components that share its
panels, as in QUADPACK-style vector quadrature: several integrands over
one interval cost one set of nodes.  Each owner applies the same rule with
its own tolerance and width cap, and drops out of the rounds once every
component has converged.  Every owner starts on one shared mesh of
panels, fractions of its interval (QUADPACK QAGP's breakpoints): [a, b]
itself by default, `HALF_LINE_MESH` for a half-line mapped onto (0, 1].
`max_panels` bounds the live panels of the whole call: owners that would
overflow it wait in a queue and restart later on their start mesh, so a
call's memory does not grow with N.  `integrate` is the one-owner,
one-component case.

A round's cost follows its nodes.  Its bookkeeping is a fixed few dozen
array operations, whatever the number of panels or owners: a mesh is
checked and its fractions 1 - t and t derived once per distinct mesh, the
first round is the start mesh itself, panels are re-sorted by owner only
while more than one owner is live, and an owner's evaluation count
follows from its panel count when it converges.  The integrand's call is
the rest.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["BOUND_MAX", "HALF_LINE_MESH", "MAX_DEPTH", "QuadratureConfig",
           "QuadratureError", "QuadResult", "integrate", "integrate_batch"]


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

# The bisection cap: no panel narrower than 2^(1 - MAX_DEPTH) of its
# integral's interval splits (see integrate_batch).
MAX_DEPTH = 30

# Bounds must lie below this in magnitude: then no panel's width b - a or
# midpoint sum a + b overflows, as both stay below the largest double.
BOUND_MAX = 2.0 ** 1023


def _check_tolerance(name: str, value) -> None:
    """Raise ValueError unless value is a positive finite number, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_budget(n) -> None:
    """Raise ValueError unless n is an integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"max_panels must be an integer >= 1, got {n!r}")


def _mesh_fractions(mesh):
    """(m, 1 - t, t) of a mesh 0 = t_0 < ... < t_m = 1, read-only, as every
    call on the mesh shares them (a cache of the eight last used)."""
    try:
        return _checked_mesh(tuple(mesh))
    except TypeError:  # no sequence, or entries that do not hash
        raise ValueError(f"need a mesh rising from 0 to 1, got {mesh}") from None


@functools.lru_cache(maxsize=8)
def _checked_mesh(mesh: tuple):
    t = np.asarray(mesh, dtype=float)
    if not (t.ndim == 1 and t.size >= 2 and t[0] == 0 and t[-1] == 1
            and np.all(t[1:] > t[:-1])):
        raise ValueError(f"need a mesh rising from 0 to 1, got {mesh}")
    s = 1.0 - t
    t.setflags(write=False)
    s.setflags(write=False)
    return t.size - 1, s, t


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the panel budget of the quadratures.

    rel_tol      : relative tolerance of each point's k-integral
    xi_rel_tol   : relative tolerance of the nonresonant shift's s-integral
    max_panels   : hard budget on simultaneously live panels of one
                   quadrature call, shared by all its owners (see
                   integrate_batch)

    kappa_cutoff and xi_cutoff are constants, not settings: no result
    depends on them, and perfbench/make_reference.py records them beside
    its references.
    """

    rel_tol: float = 1e-9
    xi_rel_tol: float = 1e-10
    max_panels: int = 20000
    kappa_cutoff = 40.0
    xi_cutoff = 50.0

    def __post_init__(self):
        _check_tolerance("rel_tol", self.rel_tol)
        _check_tolerance("xi_rel_tol", self.xi_rel_tol)
        _check_budget(self.max_panels)

    def tighter(self, factor: float) -> "QuadratureConfig":
        """Same config with both relative tolerances multiplied by `factor`."""
        return replace(self, rel_tol=self.rel_tol * factor,
                       xi_rel_tol=self.xi_rel_tol * factor)


@functools.cache
def _default_config() -> QuadratureConfig:
    """QuadratureConfig(), built once: it is frozen, so every call that is
    given no config can share it."""
    return QuadratureConfig()


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
    half = 0.5 * (b - a)[:, None]
    x = mid[:, None] + half * _K15_NODES
    node_owner = owner.repeat(x.shape[1])
    try:
        y = np.asarray(f(x.ravel(), node_owner))
    except (ArithmeticError, QuadratureError) as exc:
        if getattr(exc, "owner", None) is not None:
            exc.owner = int(node_owner[exc.owner])
        raise
    shape = y.shape[1:]
    cplx = y.dtype.kind == "c"
    if cplx:  # half cast to complex once, as each mixed product would cast it
        y = np.ascontiguousarray(y, dtype=complex).view(float)
        half = half.astype(complex)
    y = y.reshape(x.shape + (-1,))

    def rule(weights):
        s = np.einsum("pnk,n->pk", y, weights)
        return half * (s.view(complex) if cplx else s)

    k15 = rule(_K15_WEIGHTS)
    return shape, k15, np.abs(k15 - rule(_G7_WEIGHTS))


def integrate(f, a: float, b: float, *, rel_tol: float = 1e-9,
              max_panels: int = 20000) -> QuadResult:
    """Integrate f over [a, b] with global adaptive bisection.

    f must be vectorized: f(x: ndarray) -> ndarray (real or complex).
    Returns the integral with an error estimate and the evaluation count.
    This is integrate_batch with one owner.
    """
    values, errors, neval = integrate_batch(lambda x, owner: f(x), [a], [b],
                                            rel_tol=rel_tol, max_panels=max_panels)
    return QuadResult(complex(values[0]), float(errors[0]), int(neval[0]))


def integrate_batch(f, a, b, *, rel_tol: float = 1e-9, max_panels: int = 20000,
                    mesh=(0.0, 1.0)):
    """Integrate N independent integrals, owner i over [a[i], b[i]], in lockstep.

    f(x, owner) -> ndarray is called once per refinement round; x holds the
    nodes of every panel evaluated in that round and owner[j] the integral
    x[j] belongs to.  f returns [M] values, or [M, K] for K components that
    share one panel set.  Each owner follows one rule on its own: split
    every panel that exceeds, in some component, that component's fair
    share tol_k / (2 * panels) of its tolerance rel_tol * |sum_k|, until
    every component's summed |K15 - G7| is within its tolerance.  A panel
    that would split while hi - lo < 2^(1 - MAX_DEPTH) (b - a) fails the
    owner instead, so bisection stops at 2^-MAX_DEPTH of [a, b] on a
    dyadic mesh, and within [1, 2) 2^-MAX_DEPTH of it on any other.  The
    bounds must satisfy -BOUND_MAX < a < b < BOUND_MAX (finite, and no
    panel's width or midpoint overflows); f is not called otherwise.

    Every owner starts on the panels between the fractions `mesh` of its
    interval, t_0 = 0 < t_1 < ... < t_m = 1 (QUADPACK QAGP's breakpoints,
    shared by all owners; the default is [a, b] itself), checked once per
    distinct mesh (a cache of the eight last used).

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
    its one-owner call bit for bit, whatever else runs.  An owner that
    converges on P panels evaluated 2 P - m of them, 15 nodes each, as
    each split adds one panel and evaluates two.  A failure raises
    QuadratureError; its `owner` is the failing integral, and an
    ArithmeticError or QuadratureError from f that names a node of x in
    `owner` gets that node's integral instead.

    Returns (values complex[N], errors float[N], neval int[N]), values and
    errors [N, K] for K-component integrands.
    """
    _check_tolerance("rel_tol", rel_tol)
    _check_budget(max_panels)
    lo0 = np.atleast_1d(np.asarray(a, dtype=float))
    hi0 = np.atleast_1d(np.asarray(b, dtype=float))
    if lo0.ndim != 1 or lo0.shape != hi0.shape:
        raise ValueError(f"need matching 1-d bounds, got shapes {lo0.shape}, {hi0.shape}")
    inside = (lo0 > -BOUND_MAX) & (hi0 < BOUND_MAX)  # false at nan
    if not np.logical_and.reduce(inside):
        i = int(np.argmin(inside))
        raise ValueError(f"need finite bounds of magnitude below 2^1023, got "
                         f"[{lo0[i]}, {hi0[i]}] for integral {i}")
    if not np.logical_and.reduce(hi0 > lo0):
        i = int(np.argmin(hi0 > lo0))
        raise ValueError(f"need b > a, got [{lo0[i]}, {hi0[i]}] for integral {i}")
    m, s, t = _mesh_fractions(mesh)
    n = lo0.size
    if n == 0:
        return np.zeros(0, dtype=complex), np.zeros(0), np.zeros(0, dtype=int)
    if max_panels < m:
        raise QuadratureError(f"panel budget {max_panels} exhausted in integral 0 "
                              f"(its start mesh has {m} panels)", owner=0)
    narrowest = 2.0 ** (1 - MAX_DEPTH) * (hi0 - lo0)  # per owner: no split below
    # the first round: the start panels of the first owners, in owner order
    first = min(n, max_panels // m)
    pending = np.arange(first, n)  # queued owners, ascending, all above the live ones
    new_own, new_lo, new_hi = _start_panels(lo0[:first], hi0[:first], np.arange(first),
                                            s, t)
    nlive = first  # owners holding panels in the coming round
    own = values = None  # live panels, grouped by owner; converged owners

    while True:
        shape, new_vals, new_errs = _panels(f, new_lo, new_hi, new_own)
        if own is None:
            own, lo, hi, vals, errs = new_own, new_lo, new_hi, new_vals, new_errs
        else:
            # kept panels, then left halves, then right halves, per owner
            own = np.concatenate((own[keep], new_own))
            lo = np.concatenate((lo[keep], new_lo))
            hi = np.concatenate((hi[keep], new_hi))
            vals = np.concatenate((vals[keep], new_vals))
            errs = np.concatenate((errs[keep], new_errs))
            if nlive > 1:
                order = np.argsort(own, kind="stable")
                own, lo, hi = own[order], lo[order], hi[order]
                vals, errs = vals[order], errs[order]

        # owner j's panels are edges[j]:edges[j + 1]
        if nlive > 1:
            edges = np.concatenate(([True], own[1:] != own[:-1], [True])).nonzero()[0]
        else:
            edges = np.array([0, own.size])
        starts, counts = edges[:-1], edges[1:] - edges[:-1]
        owners = own[starts]
        total = np.add.reduceat(vals, starts)
        err_total = np.add.reduceat(errs, starts)
        if not (np.logical_and.reduce(np.isfinite(total), axis=None)
                and np.logical_and.reduce(np.isfinite(err_total), axis=None)):
            i = int(np.argmin(np.logical_and.reduce(
                np.isfinite(total) & np.isfinite(err_total), axis=1)))
            raise QuadratureError(
                f"non-finite integrand value or error estimate in integral "
                f"{owners[i]} (sum={total[i]}, err={err_total[i]})", owner=int(owners[i]))
        tol = rel_tol * np.abs(total)
        done = np.logical_and.reduce(err_total <= tol, axis=1)
        ndone = np.count_nonzero(done)
        if ndone:
            # an owner evaluated its m start panels and both halves of every
            # panel it split, each split adding one panel: 2 * panels - m
            if ndone == n:  # all converge together: owners is 0, ..., n - 1
                values = total.astype(complex, copy=False)
                return (values.reshape((n,) + shape), err_total.reshape((n,) + shape),
                        15 * (2 * counts - m))
            if values is None:
                values = np.zeros((n, total.shape[1]), dtype=complex)
                errors = np.zeros(values.shape)
                neval = np.zeros(n, dtype=int)
            fin = owners[done]
            values[fin] = total[done]
            errors[fin] = err_total[done]
            neval[fin] = 15 * (2 * counts[done] - m)
            if ndone == owners.size and pending.size == 0:
                return values.reshape((n,) + shape), errors.reshape((n,) + shape), neval

        # the split rule, per owner: the panels above their fair share in
        # some component.  A live owner always splits its worst panel: some
        # component has err_total > tol, so its largest panel error is at
        # least err_total / panels.
        share = (tol / (2.0 * counts[:, None])).repeat(counts, axis=0)
        mask = np.logical_or.reduce(errs > share, axis=1)
        live = None  # every panel's owner is live
        if ndone:
            live = (~done).repeat(counts)
            mask &= live
        split = mask.nonzero()[0]
        own_s, lo_s, hi_s = own[split], lo[split], hi[split]
        deep = hi_s - lo_s < narrowest[own_s]
        if np.logical_or.reduce(deep):
            i = int(np.searchsorted(owners, own_s[np.argmax(deep)]))
            raise QuadratureError(
                f"panel refinement exceeded {MAX_DEPTH} levels in integral "
                f"{owners[i]} (err={err_total[i]}, tol={tol[i]})", owner=int(owners[i]))
        nlive = owners.size - ndone

        # the budget: keep the longest run of live owners, in index order,
        # whose panels after this round fit; the first one must fit alone
        admit = pending[:0]
        if own.size + split.size > max_panels or pending.size:
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
                pending = np.concatenate((evicted, pending))
                live = running.repeat(counts)
                mask &= live
                split = mask.nonzero()[0]
                own_s, lo_s, hi_s = own[split], lo[split], hi[split]
                nlive -= evicted.size
            else:
                # queued owners start only in a round that evicted none, so
                # an evicted owner does not restart at once into the same
                # shortage
                room = (max_panels - int(used[-1])) // m
                admit, pending = pending[:room], pending[room:]
                nlive += admit.size
        keep = (~mask if live is None else live & ~mask).nonzero()[0]

        # this round's panels: both halves of every split panel, then the
        # start panels of every admitted owner
        mid = 0.5 * (lo_s + hi_s)
        parts = [(own_s, lo_s, mid), (own_s, mid, hi_s)]
        if admit.size:
            parts.append(_start_panels(lo0[admit], hi0[admit], admit, s, t))
        new_own, new_lo, new_hi = (np.concatenate(p) for p in zip(*parts))


def _start_panels(a, b, owners, s, t):
    """(owner, lo, hi) of the start panels of `owners` on [a, b], in owner
    order: the mesh's fractions of each interval, (1 - t) a + t b with both
    ends exact."""
    ends = a[:, None] * s + b[:, None] * t
    return owners.repeat(t.size - 1), ends[:, :-1].ravel(), ends[:, 1:].ravel()

