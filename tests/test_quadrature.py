"""Adaptive Gauss-Kronrod engines: exactness, adaptivity, lockstep, failure modes."""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpshift.quadrature import (_G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS, LEVELS_MAX,
                                MAX_DEPTH, QuadratureConfig, QuadratureError, integrate,
                                integrate_batch)


def test_polynomial_single_pass():
    # G7 is exact through degree 13, so a quintic converges on the first panel
    res = integrate(lambda x: x ** 5, 0.0, 2.0)
    assert res.neval == 15
    assert abs(res.value - 64.0 / 6.0) < 1e-12
    assert res.value.imag == 0.0


def test_constants_are_exact_to_the_last_bit():
    # with the doubles nearest the exact rule the weights sum to 2 and a
    # constant integrates to itself with a zero error estimate; at 15
    # digits the sum was 2 - 6e-15, a bias no panel split could remove
    assert _K15_WEIGHTS.sum() == 2.0
    assert np.array_equal(_K15_NODES, -_K15_NODES[::-1])
    for c, a, b in ((1.0, 0.0, 1.0), (3.5, -2.0, 5.0)):
        res = integrate(lambda x: np.full_like(x, c), a, b, rel_tol=1e-15)
        assert (res.value, res.error, res.neval) == (c * (b - a), 0.0, 15)


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
    with pytest.raises(QuadratureError, match=f"exceeded {MAX_DEPTH} levels"):
        integrate(lambda x: x ** -0.5, 0.0, 1.0, rel_tol=1e-12)


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
    assert tight.max_panels == base.max_panels
    # the s-integral's tolerance is derived: a tenth of rel_tol, whatever it is
    for cfg in (base, tight, QuadratureConfig(rel_tol=3e-7)):
        assert cfg.xi_rel_tol == cfg.rel_tol / 10
    assert base.xi_rel_tol == 1e-10


def test_every_setting_changes_a_result():
    # the depth cap is the engine's constant, the two cutoffs are constants
    # that no result depends on, and the s-integral's tolerance is derived
    # from rel_tol: none of them is a setting
    assert [f.name for f in fields(QuadratureConfig)] == ["rel_tol", "max_panels"]
    assert (QuadratureConfig.kappa_cutoff, QuadratureConfig.xi_cutoff) == (40.0, 50.0)
    for gone in ("max_depth", "kappa_cutoff", "xi_cutoff", "xi_rel_tol"):
        with pytest.raises(TypeError):
            QuadratureConfig(**{gone: 30})
    with pytest.raises(TypeError):
        integrate(lambda x: x, 0.0, 1.0, max_depth=30)
    with pytest.raises(TypeError):
        integrate_batch(lambda x, owner: x, [0], max_depth=30)
    # the settings are keyword-only: a positional 30 is no depth and no budget
    with pytest.raises(TypeError):
        integrate(lambda x: x, 0.0, 1.0, 1e-9, 30)
    with pytest.raises(TypeError):
        integrate_batch(lambda x, owner: x, [0], 1e-9, 30)


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=7),
       a=st.floats(-3.0, 3.0), width=st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_polynomials_match_antiderivative(coeffs, a, width):
    poly = np.polynomial.Polynomial(coeffs)
    res = integrate(lambda x: poly(x), a, a + width, rel_tol=1e-12)
    exact = poly.integ()(a + width) - poly.integ()(a)
    assert math.isclose(res.value.real, exact, rel_tol=1e-9, abs_tol=1e-9)


def test_config_rejects_invalid_values():
    for bad in (dict(rel_tol=-1.0), dict(rel_tol=0.0), dict(rel_tol=math.nan),
                dict(rel_tol=math.inf),
                dict(max_panels=0), dict(max_panels=-3), dict(max_panels=math.nan),
                dict(max_panels=100.5), dict(max_panels=20000.0),
                dict(max_panels=True), dict(rel_tol=True),
                dict(rel_tol=np.True_)):   # True == 1, but is no tolerance
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)
    with pytest.raises(ValueError):
        QuadratureConfig().tighter(0.0)


@pytest.mark.parametrize("bad", [
    dict(rel_tol=math.nan), dict(rel_tol=math.inf), dict(rel_tol=0.0),
    dict(rel_tol=-1e-9), dict(max_panels=2.5), dict(max_panels=-1),
    dict(max_panels=0), dict(max_panels=True), dict(rel_tol=True)])
def test_engine_rejects_invalid_settings_before_any_evaluation(bad):
    # as QuadratureConfig does: rel_tol = nan used to die reshaping an empty
    # array, rel_tol = inf to return the first panel as converged, and
    # rel_tol <= 0 to run to the depth cap
    calls = []

    def f(x, owner):
        calls.append(x.size)
        return np.sqrt(x)

    with pytest.raises(ValueError, match=next(iter(bad))):
        integrate_batch(f, [0], **bad)
    with pytest.raises(ValueError, match=next(iter(bad))):
        integrate(lambda x: f(x, None), 0.0, 1.0, **bad)
    assert calls == []


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
            integrate_batch(g, [0, 0])
        assert len(calls) == 1


def _lockstep_integrand(params):
    """Owner i: [scale e^{i k x} / (1 + u^2), 1 / (1 + u^2)^2] with u = (x - x0)/w."""
    scale, k, x0, w = (np.array(p) for p in zip(*params))

    def f(x, owner):
        u2 = ((x - x0[owner]) / w[owner]) ** 2
        return np.stack([scale[owner] * np.exp(1j * k[owner] * x) / (1.0 + u2),
                         1.0 / (1.0 + u2) ** 2], axis=-1)
    return f


def _over(f, a, b):
    """f(x, owner) over owner i's [a[i], b[i]] as an integrand over [0, 1]:
    f at x = (1 - t) a + t b, times b - a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def g(t, owner):
        y = f((1.0 - t) * a[owner] + t * b[owner], owner)
        width = (b - a)[owner]
        return y * width.reshape(width.shape + (1,) * (y.ndim - 1))
    return g


def _alone(f, i, level=0, **kw):
    """Owner i of f as a one-owner integrate_batch call, unpacked."""
    values, errors, neval = integrate_batch(lambda x, owner: f(x, np.full(x.shape, i)),
                                            [level], **kw)
    return values[0], errors[0], neval[0]


def _assert_same(got, alone):
    """Value, error and evaluation count equal bit for bit."""
    assert got[2] == alone[2]
    assert np.array_equal(got[0], alone[0]) and np.array_equal(got[1], alone[1])


@given(owners=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
                                 st.floats(-5.0, 5.0), st.floats(0.0, 20.0),
                                 st.floats(-3.0, 3.0), st.floats(1e-3, 1.0)),
                       min_size=1, max_size=6),
       rel_tol=st.sampled_from([1e-6, 1e-10]))
@settings(max_examples=40, deadline=None)
def test_lockstep_owners_match_standalone_integrate(owners, rel_tol):
    a = [o[0] for o in owners]
    b = [o[0] + o[1] for o in owners]
    f = _over(_lockstep_integrand([o[2:] for o in owners]), a, b)
    values, errors, neval = integrate_batch(f, np.zeros(len(owners), dtype=int),
                                            rel_tol=rel_tol)
    assert values.shape == errors.shape == (len(owners), 2)
    for i in range(len(owners)):
        _assert_same((values[i], errors[i], neval[i]), _alone(f, i, rel_tol=rel_tol))


def test_zero_owner_stops_after_first_round():
    seen = []

    def f(x, owner):
        seen.append(set(owner.tolist()))
        return np.where(owner == 1, 0.0, np.cos(30.0 * x) * np.exp(-x))

    values, errors, neval = integrate_batch(_over(f, [0.0, 0.0, 1.0], [5.0, 5.0, 4.0]),
                                            [0, 0, 0], rel_tol=1e-10)
    assert seen[0] == {0, 1, 2}
    assert len(seen) > 2 and all(1 not in owners for owners in seen[1:])
    assert (values[1], errors[1], neval[1]) == (0.0, 0.0, 15)
    assert neval[0] > 15 and neval[2] > 15
    exact = (1.0 - math.exp(-5.0) * (math.cos(150.0) - 30.0 * math.sin(150.0))) / 901.0
    assert abs(values[0] - exact) < 1e-12


def test_lockstep_failure_in_one_owner_raises():
    def singular(x, owner):
        return np.where(owner == 1, np.abs(x) ** -0.5, 1.0)

    with pytest.raises(QuadratureError, match=f"exceeded {MAX_DEPTH} levels in integral 1"):
        integrate_batch(singular, [0, 0], rel_tol=1e-12)

    def kink(x, owner):
        return np.where(owner == 0, np.sqrt(np.abs(x - 0.3)), x)

    with pytest.raises(QuadratureError, match="budget 4 exhausted in integral 0"):
        integrate_batch(kink, [0, 0], rel_tol=1e-15, max_panels=4)


def test_lockstep_rejects_empty_intervals():
    # the lockstep runs on [0, 1]; integrate maps [a, b] onto it and
    # refuses an empty or reversed interval
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match=rf"finite bounds a < b .*, got \[{a}, {b}\]"):
            integrate(lambda x: x, a, b)


@pytest.mark.parametrize("a, b", [
    (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
    (math.inf, math.inf), (-1e308, 1e308), (1e308, 1.7e308), (0.0, 2.0 ** 1023)])
@pytest.mark.filterwarnings("error")
def test_bounds_out_of_range_rejected_before_any_evaluation(a, b):
    # [0, inf) used to evaluate f once on 15 nan nodes, (-1e308, 1e308) to
    # overflow b - a, and [1e308, 1.7e308] a panel midpoint's a + b
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match=r"2\^1023, got \[.*\]"):
        integrate(f, a, b)


@pytest.mark.parametrize("a, b", [
    ([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]]), (0.0, [1.0, 2.0])])
def test_bounds_of_different_shapes_rejected_before_any_evaluation(a, b):
    # integrate takes one interval; the lockstep's owners are its levels
    def f(x):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="need finite bounds a < b"):
        integrate(f, a, b)


@pytest.mark.filterwarnings("error")
def test_bounds_just_below_the_limit_integrate():
    # b - a is the largest double; a panel sum of the integrand times it
    # would overflow, so integrate scales after the integral
    top = np.nextafter(2.0 ** 1023, 0.0)
    res = integrate(np.ones_like, -top, top)
    assert (res.value, res.neval) == (2.0 * top, 15)


def test_zero_owners_return_empty_arrays_without_calling_f():
    def f(x, owner):
        raise AssertionError("integrand called without owners")

    values, errors, neval = integrate_batch(f, [])
    assert values.shape == errors.shape == neval.shape == (0,)
    assert values.dtype == complex and neval.dtype.kind == "i"


@given(owners=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
                                 st.floats(-5.0, 5.0), st.floats(0.0, 20.0),
                                 st.floats(-3.0, 3.0), st.floats(1e-3, 1.0),
                                 st.integers(0, 12)),
                       min_size=2, max_size=8),
       share=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_panel_budget_evicts_and_owners_still_match_standalone(owners, share):
    a = [o[0] for o in owners]
    b = [o[0] + o[1] for o in owners]
    levels = np.array([o[6] for o in owners])
    f = _over(_lockstep_integrand([o[2:6] for o in owners]), a, b)
    alone = [_alone(f, i, levels[i], rel_tol=1e-10) for i in range(len(owners))]
    # each owner evaluates at least as many panels as it ever holds, so a
    # lone owner fits; anything below the sum forces evictions
    largest = max(r[2] // 15 for r in alone)
    budget = largest + int(share * sum(r[2] // 15 for r in alone))
    live = {}
    peaks = []

    def counted(x, owner):
        # an owner missing from a round holds none; one that held none
        # (re)starts on the L + 1 panels of its own ladder; a continuing
        # owner adds two halves per split panel
        new = np.bincount(owner, minlength=len(owners)) // 15
        for i in range(len(owners)):
            held = live.get(i, 0)
            assert held or new[i] in (0, levels[i] + 1)
            live[i] = 0 if new[i] == 0 else (new[i] if held == 0 else held + new[i] // 2)
        peaks.append(sum(live.values()))
        return f(x, owner)

    values, errors, neval = integrate_batch(counted, levels, rel_tol=1e-10,
                                            max_panels=budget)
    assert max(peaks) <= budget
    for i, res in enumerate(alone):
        _assert_same((values[i], errors[i], neval[i]), res)


def test_start_mesh_is_its_panels_with_exact_ends():
    # each owner starts on its own ladder 0, 2^-L, ..., 1/2, 1 of [0, 1]
    rounds = []

    def f(x, owner):
        rounds.append(x.reshape(-1, 15))
        return np.exp(x)

    values, _, neval = integrate_batch(f, [4, 2], rel_tol=1e-12)
    assert neval.tolist() == [75, 45] and len(rounds) == 1
    first = 0
    for i, level in enumerate((4, 2)):
        ends = np.array([0.0] + [2.0 ** -k for k in range(level, -1, -1)])
        mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
        assert np.array_equal(rounds[0][first:first + level + 1],
                              mid[:, None] + half[:, None] * _K15_NODES)
        assert abs(values[i] - (math.e - 1.0)) <= 1e-12 * math.e
        first += level + 1
    # integrate puts the nodes of [0, 1] at x = (1 - t) a + t b, which is
    # a at t = 0 and b at t = 1 exactly, where a + t (b - a) misses
    # b = 0.9 from a = 0.2
    t = 0.5 + 0.5 * _K15_NODES
    for lo, hi in ((0.2, 0.9), (0.1, 0.7), (-0.3, 0.2)):
        rounds.clear()
        res = integrate(lambda x: f(x, None), lo, hi, rel_tol=1e-12)
        assert res.neval == 15 and np.array_equal(rounds[0][0], (1.0 - t) * lo + t * hi)
        assert abs(res.value - (math.exp(hi) - math.exp(lo))) <= 1e-12 * math.exp(hi)


def test_integrate_on_the_unit_interval_is_its_one_owner_batch():
    # on [0, 1] the map is x = t and the width 1: the same bits, also for
    # the narrow bump, which refines
    for f in (np.cos, lambda x: np.exp(7j * x) / (1e-3 + x),
              lambda x: np.exp(-0.5 * ((x - 0.3) / 1e-3) ** 2)):
        res = integrate(f, 0, 1, rel_tol=1e-10)
        values, errors, neval = integrate_batch(lambda x, owner: f(x), [0], rel_tol=1e-10)
        assert np.array([res.value]).tobytes() == values.tobytes()
        assert np.array([res.error]).tobytes() == errors.tobytes()
        assert res.neval == neval[0]


@pytest.mark.parametrize("levels", [0, 4])
def test_start_panels_count_at_their_dyadic_level(levels):
    # x^-1/2 refines at x = 0 until the cap: the narrowest panel is then
    # 2^-MAX_DEPTH of [0, 1], whatever ladder it starts on
    widths = []

    def singular(x, owner):
        x = x.reshape(-1, 15)
        half = (x[:, -1] - x[:, 0]) / (_K15_NODES[-1] - _K15_NODES[0])
        widths.append(2.0 * half.min())
        return x.ravel() ** -0.5

    with pytest.raises(QuadratureError, match=f"exceeded {MAX_DEPTH} levels"):
        integrate_batch(singular, [levels], rel_tol=1e-12)
    assert widths[0] == pytest.approx(2.0 ** -levels, rel=1e-12)  # the finest rung
    assert min(widths) * 2.0 ** MAX_DEPTH == pytest.approx(1.0, rel=1e-12)


def test_budget_below_the_start_mesh_names_owner_zero():
    def f(x, owner):
        raise AssertionError("integrand called")

    with pytest.raises(QuadratureError, match="budget 4 exhausted in integral 0") as exc:
        integrate_batch(f, [4, 4], max_panels=4)
    assert exc.value.owner == 0
    # five panels fit one owner at a time, and both still finish
    values, _, neval = integrate_batch(_over(lambda x, owner: np.cos(x), [0.0, 0.0],
                                             [1.0, 2.0]), [4, 4], max_panels=5)
    assert neval.tolist() == [75, 75]
    assert abs(values[1] - math.sin(2.0)) < 1e-12


def test_a_ladder_beyond_the_budget_names_its_owner_before_any_evaluation():
    # owner 2's 12 start panels exceed a budget of 10 that the others fit
    def f(x, owner):
        raise AssertionError("integrand called")

    with pytest.raises(QuadratureError, match="budget 10 exhausted in integral 2 "
                       r"\(its start ladder has 12 panels\)") as exc:
        integrate_batch(f, [4, 9, 11, 0], max_panels=10)
    assert exc.value.owner == 2


@pytest.mark.parametrize("levels", [
    [4, -1], [LEVELS_MAX + 1], [2 ** 70], [2.0], [True], ["4"], None, 4, [[4, 4]]],
    ids=["negative", "beyond_max", "beyond_int64", "float", "bool", "text", "none",
         "scalar", "two_dimensional"])
def test_bad_start_mesh_rejected(levels):
    # one level from 0 to LEVELS_MAX per owner, in a 1-d array: a scalar
    # does not say how many owners there are
    def f(x, owner):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="need levels from 0 to 1022"):
        integrate_batch(f, levels)


def test_panel_budget_bounds_the_whole_call():
    # ten scalar owners that each evaluate 19-31 panels share a budget of 40
    vector = _lockstep_integrand([(1.0, 5.0 + 0.5 * i, 0.0, 1.0) for i in range(10)])

    def f(x, owner):
        return vector(x, owner)[:, 0]

    alone = [integrate(lambda x, i=i: f(x, np.full(x.shape, i)), 0.0, 4.0, rel_tol=1e-12)
             for i in range(10)]
    nodes = []

    def counted(x, owner):
        nodes.append(x.size)
        return f(x, owner)

    values, _, neval = integrate_batch(_over(counted, np.zeros(10), np.full(10, 4.0)),
                                       np.zeros(10, dtype=int), rel_tol=1e-12,
                                       max_panels=40)
    assert max(nodes) <= 15 * 40
    assert sum(nodes) > neval.sum()  # evicted work was redone
    assert neval.tolist() == [r.neval for r in alone]
    assert values.tolist() == [r.value for r in alone]


def test_vector_owner_meets_every_component_and_matches_its_one_owner_call():
    # a smooth component, a narrow bump and an identically zero one share
    # each owner's panels; the bump needs far more refinement
    sigma = 1e-3

    def f(x, owner):
        bump = np.exp(-0.5 * ((x - 0.3) / sigma) ** 2)
        return np.stack([np.cos((1.0 + owner) * x), bump, np.zeros_like(x)], axis=-1)

    n, rel_tol = 4, 1e-10
    levels = np.zeros(n, dtype=int)
    values, errors, neval = integrate_batch(f, levels, rel_tol=rel_tol)
    assert values.shape == errors.shape == (n, 3)
    smooth = np.sin(1.0 + np.arange(n)) / (1.0 + np.arange(n))
    assert np.all(np.abs(values[:, 0] - smooth) <= rel_tol * np.abs(smooth))
    exact = sigma * math.sqrt(2.0 * math.pi)  # tails are ~1e-19 of the mass
    assert np.all(np.abs(values[:, 1] - exact) <= rel_tol * exact)
    assert not values[:, 2].any() and not errors[:, 2].any()
    assert np.all(neval > integrate(np.cos, 0.0, 1.0, rel_tol=rel_tol).neval)

    # the zero component holds no owner open
    assert integrate_batch(lambda x, owner: f(x, owner)[:, :2], levels,
                           rel_tol=rel_tol)[2].tolist() == neval.tolist()

    # each owner is its one-owner call, also when a small budget evicts
    alone = [_alone(f, i, rel_tol=rel_tol) for i in range(n)]
    budget = max(r[2] for r in alone) // 15
    nodes = []

    def counted(x, owner):
        nodes.append(x.size)
        return f(x, owner)

    for max_panels in (20000, budget):
        nodes.clear()
        got = integrate_batch(counted, levels, rel_tol=rel_tol, max_panels=max_panels)
        for i, res in enumerate(alone):
            _assert_same((got[0][i], got[1][i], got[2][i]), res)
    assert max(nodes) <= 15 * budget
    assert sum(nodes) > neval.sum()  # evicted work was redone
