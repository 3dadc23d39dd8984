"""Adaptive Gauss-Kronrod engines: exactness, adaptivity, lockstep, failure modes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpshift.quadrature import (QuadratureConfig, QuadratureError, integrate,
                                integrate_batch)


def test_polynomial_single_pass():
    # G7 is exact through degree 13, so a quintic converges on the first panel
    res = integrate(lambda x: x ** 5, 0.0, 2.0)
    assert res.neval == 15
    assert abs(res.value - 64.0 / 6.0) < 1e-12
    assert res.value.imag == 0.0


def test_smooth_exponential():
    res = integrate(lambda x: np.exp(-x), 0.0, 50.0, rel_tol=1e-12)
    exact = 1.0 - math.exp(-50.0)
    assert abs(res.value.real - exact) < 1e-12
    assert res.error < 1e-10


def test_error_estimate_brackets_true_error():
    res = integrate(lambda x: np.cos(7.3 * x), 0.0, 10.0, rel_tol=1e-9)
    exact = math.sin(73.0) / 7.3
    assert abs(res.value.real - exact) <= max(10.0 * res.error, 1e-13)


def test_narrow_bump_adaptivity():
    # width 1e-3 bump inside [0, 1]: needs refinement, not a finer global rule
    sigma = 1e-3
    res = integrate(lambda x: np.exp(-0.5 * ((x - 0.3) / sigma) ** 2), 0.0, 1.0,
                    rel_tol=1e-10)
    exact = sigma * math.sqrt(2.0 * math.pi)  # tails are ~1e-19 of the mass
    assert abs(res.value.real - exact) / exact < 1e-9
    assert res.neval > 15 * 10


def test_complex_integrand():
    res = integrate(lambda x: np.exp(1j * x), 0.0, math.pi, rel_tol=1e-12)
    assert abs(res.value - 2.0j) < 1e-12


def test_integrand_sees_flat_float_batches():
    shapes = []

    def f(x):
        shapes.append((x.ndim, x.dtype.kind))
        return x ** 2

    integrate(f, 0.0, 1.0)
    assert shapes and all(nd == 1 and kind == "f" for nd, kind in shapes)


def test_depth_cap_raises():
    # endpoint singularity: the leftmost panel fails tolerance at every depth
    with pytest.raises(QuadratureError):
        integrate(lambda x: x ** -0.5, 0.0, 1.0, rel_tol=1e-12, max_depth=3)


def test_panel_budget_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                  rel_tol=1e-15, max_panels=4)


def test_empty_interval_rejected():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            integrate(lambda x: x, a, b)


def test_config_tighter_scales_tolerances_only():
    base = QuadratureConfig()
    tight = base.tighter(0.01)
    assert tight.rel_tol == base.rel_tol * 0.01
    assert tight.xi_rel_tol == base.xi_rel_tol * 0.01
    assert tight.kappa_cutoff == base.kappa_cutoff
    assert tight.xi_cutoff == base.xi_cutoff
    assert tight.max_depth == base.max_depth


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=7),
       a=st.floats(-3.0, 3.0), width=st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_polynomials_match_antiderivative(coeffs, a, width):
    poly = np.polynomial.Polynomial(coeffs)
    res = integrate(lambda x: poly(x), a, a + width, rel_tol=1e-12)
    exact = poly.integ()(a + width) - poly.integ()(a)
    assert math.isclose(res.value.real, exact, rel_tol=1e-9, abs_tol=1e-9)


def test_config_rejects_invalid_values():
    QuadratureConfig(abs_tol=0.0)
    for bad in (dict(rel_tol=-1.0), dict(rel_tol=0.0), dict(xi_rel_tol=math.nan),
                dict(kappa_cutoff=-5.0), dict(xi_cutoff=math.inf),
                dict(abs_tol=-1e-12), dict(abs_tol=math.inf),
                dict(max_depth=0), dict(max_panels=0)):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)
    with pytest.raises(ValueError):
        QuadratureConfig().tighter(0.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_integrand_fails_fast():
    for bad in (math.nan, math.inf):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.5, bad, x)

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(f, 0.0, 1.0)
        assert len(calls) == 1

        def g(x, owner):
            calls.append(x.size)
            return np.where((owner == 1) & (x > 0.5), bad, x)

        calls.clear()
        with pytest.raises(QuadratureError, match="integral 1"):
            integrate_batch(g, [0.0, 0.0], [1.0, 1.0])
        assert len(calls) == 1


def _lockstep_integrand(params):
    """Owner i: scale * e^{i k x} / (1 + ((x - x0)/w)^2), complex-valued."""
    scale, k, x0, w = (np.array(p) for p in zip(*params))

    def f(x, owner):
        return (scale[owner] * np.exp(1j * k[owner] * x)
                / (1.0 + ((x - x0[owner]) / w[owner]) ** 2))
    return f


@given(owners=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
                                 st.floats(-5.0, 5.0), st.floats(0.0, 20.0),
                                 st.floats(-3.0, 3.0), st.floats(1e-3, 1.0)),
                       min_size=1, max_size=6),
       rel_tol=st.sampled_from([1e-6, 1e-10]))
@settings(max_examples=40, deadline=None)
def test_lockstep_owners_match_standalone_integrate(owners, rel_tol):
    a = [o[0] for o in owners]
    b = [o[0] + o[1] for o in owners]
    f = _lockstep_integrand([o[2:] for o in owners])
    values, errors, neval = integrate_batch(f, a, b, rel_tol=rel_tol)
    for i, (lo, hi) in enumerate(zip(a, b)):
        alone = integrate(lambda x: f(x, np.full(x.shape, i)), lo, hi, rel_tol=rel_tol)
        assert neval[i] == alone.neval
        assert abs(values[i] - alone.value) <= 1e-14 * abs(alone.value)
        assert errors[i] == pytest.approx(alone.error, rel=1e-6,
                                          abs=1e-15 * abs(alone.value))


def test_zero_owner_stops_after_first_round():
    seen = []

    def f(x, owner):
        seen.append(set(owner.tolist()))
        return np.where(owner == 1, 0.0, np.cos(30.0 * x) * np.exp(-x))

    values, errors, neval = integrate_batch(f, [0.0, 0.0, 1.0], [5.0, 5.0, 4.0],
                                            rel_tol=1e-10)
    assert seen[0] == {0, 1, 2}
    assert len(seen) > 2 and all(1 not in owners for owners in seen[1:])
    assert (values[1], errors[1], neval[1]) == (0.0, 0.0, 15)
    assert neval[0] > 15 and neval[2] > 15
    exact = (1.0 - math.exp(-5.0) * (math.cos(150.0) - 30.0 * math.sin(150.0))) / 901.0
    assert abs(values[0] - exact) < 1e-12


def test_lockstep_failure_in_one_owner_raises():
    def singular(x, owner):
        return np.where(owner == 1, np.abs(x) ** -0.5, 1.0)

    with pytest.raises(QuadratureError, match="exceeded 3 levels in integral 1"):
        integrate_batch(singular, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-12, max_depth=3)

    def kink(x, owner):
        return np.where(owner == 0, np.sqrt(np.abs(x - 0.3)), x)

    with pytest.raises(QuadratureError, match="budget 4 exhausted in integral 0"):
        integrate_batch(kink, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-15, max_panels=4)


def test_lockstep_rejects_empty_intervals():
    with pytest.raises(ValueError, match="integral 1"):
        integrate_batch(lambda x, owner: x, [0.0, 1.0], [1.0, 1.0])


def test_zero_owners_return_empty_arrays_without_calling_f():
    def f(x, owner):
        raise AssertionError("integrand called without owners")

    values, errors, neval = integrate_batch(f, [], [])
    assert values.shape == errors.shape == neval.shape == (0,)
    assert values.dtype == complex and neval.dtype.kind == "i"


@given(owners=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
                                 st.floats(-5.0, 5.0), st.floats(0.0, 20.0),
                                 st.floats(-3.0, 3.0), st.floats(1e-3, 1.0)),
                       min_size=2, max_size=8),
       share=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_panel_budget_evicts_and_owners_still_match_standalone(owners, share):
    a = [o[0] for o in owners]
    b = [o[0] + o[1] for o in owners]
    f = _lockstep_integrand([o[2:] for o in owners])
    alone = [integrate(lambda x, i=i: f(x, np.full(x.shape, i)), lo, hi, rel_tol=1e-10)
             for i, (lo, hi) in enumerate(zip(a, b))]
    # each owner evaluates at least as many panels as it ever holds, so a
    # lone owner fits; anything below the sum forces evictions
    largest = max(r.neval // 15 for r in alone)
    budget = largest + int(share * sum(r.neval // 15 for r in alone))
    live = {}
    peaks = []

    def counted(x, owner):
        # a continuing owner adds two halves per split panel; one new panel
        # means it (re)starts; an owner missing from a round holds none
        new = np.bincount(owner, minlength=len(owners)) // 15
        for i in range(len(owners)):
            live[i] = 0 if new[i] == 0 else (1 if new[i] == 1 else live[i] + new[i] // 2)
        peaks.append(sum(live.values()))
        return f(x, owner)

    values, errors, neval = integrate_batch(counted, a, b, rel_tol=1e-10,
                                            max_panels=budget)
    assert max(peaks) <= budget
    for i, res in enumerate(alone):
        assert neval[i] == res.neval
        assert abs(values[i] - res.value) <= 1e-14 * abs(res.value)
        assert errors[i] == pytest.approx(res.error, rel=1e-6, abs=1e-15 * abs(res.value))


def test_panel_budget_bounds_the_whole_call():
    # ten owners that each evaluate 19-31 panels share a budget of 40
    f = _lockstep_integrand([(1.0, 5.0 + 0.5 * i, 0.0, 1.0) for i in range(10)])
    alone = [integrate(lambda x, i=i: f(x, np.full(x.shape, i)), 0.0, 4.0, rel_tol=1e-12)
             for i in range(10)]
    nodes = []

    def counted(x, owner):
        nodes.append(x.size)
        return f(x, owner)

    values, _, neval = integrate_batch(counted, np.zeros(10), np.full(10, 4.0),
                                       rel_tol=1e-12, max_panels=40)
    assert max(nodes) <= 15 * 40
    assert sum(nodes) > neval.sum()  # evicted work was redone
    assert neval.tolist() == [r.neval for r in alone]
    assert np.allclose(values, [r.value for r in alone], rtol=1e-14, atol=0.0)
