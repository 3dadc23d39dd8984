"""Scattering Green's tensor: closed forms, k-quadrature, channel algebra."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpshift.atomics import (AsymptoticCase, asymptotic, decay_rate, greens_grid,
                             nonresonant_shift_grid)
from cpshift.greens import (EvaluationPoint, PlanarTensors, closed_form_greens,
                            generalized_im,
                            generalized_re, greens_nonreciprocal_mirror,
                            greens_perfect_conductor, numeric_greens,
                            scattering_greens_numeric)
from cpshift.media import (AxionMedium, ConstantReflectionMedium, PerfectConductor,
                           PerfectNonreciprocalMirror)
from cpshift.quadrature import QuadratureConfig, QuadratureError
from cpshift.units import canonical_transition, circular_dipole, free_space_rate_formula


def _conductor_xx(z, w):
    return (-1 / (8 * np.pi * z) - 1j / (16 * np.pi * w * z ** 2)
            + 1 / (32 * np.pi * w ** 2 * z ** 3)) * np.exp(2j * w * z)


def _conductor_zz(z, w):
    return (-1j / (8 * np.pi * w * z ** 2)
            + 1 / (16 * np.pi * w ** 2 * z ** 3)) * np.exp(2j * w * z)


def _mirror_xy(z, w, sign=-1.0):
    return sign * (1 / (8 * np.pi * z) + 1j / (16 * np.pi * w * z ** 2)) * np.exp(2j * w * z)


def test_closed_forms_against_inline_formulas():
    for z in (0.3, 1.0, 4.7):
        g = greens_perfect_conductor(z, 1.0)
        assert g.xx == pytest.approx(_conductor_xx(z, 1.0), rel=1e-14)
        assert g.zz == pytest.approx(_conductor_zz(z, 1.0), rel=1e-14)
        assert g.xy == 0.0 and g.quad_error == 0.0 and g.neval == 0
        m = greens_nonreciprocal_mirror(z, 1.0)
        assert m.xy == pytest.approx(_mirror_xy(z, 1.0), rel=1e-14)
        assert m.xx == 0.0 and m.zz == 0.0
    for closed in (greens_perfect_conductor, greens_nonreciprocal_mirror):
        with pytest.raises(ValueError):
            closed(-1.0, 1.0)
        with pytest.raises(ValueError):
            closed(np.array([1.0, 0.0]), 1.0)


def test_closed_forms_broadcast_heights_against_frequencies():
    z = np.array([0.3, 1.0, 4.7])
    for w in (1.0, 2.3j):
        for closed in (greens_perfect_conductor, greens_nonreciprocal_mirror):
            batch = closed(z, w)
            for j, zj in enumerate(z):
                one = closed(zj, w)
                for name in ("xx", "zz", "xy"):
                    assert getattr(one, name) == getattr(batch, name)[j]
    xi = np.array([0.5, 2.0, 7.0])
    batch = greens_perfect_conductor(z, 1j * xi)
    assert batch.xx.shape == batch.neval.shape == (3,)
    for j in range(3):
        assert batch.xx[j] == greens_perfect_conductor(z[j], 1j * xi[j]).xx


def test_mirror_sign_flips_tensor():
    a = greens_nonreciprocal_mirror(0.8, 1.0, sign=-1.0)
    b = greens_nonreciprocal_mirror(0.8, 1.0, sign=+1.0)
    assert b.xy == -a.xy


def test_numeric_matches_closed_forms():
    for z in np.geomspace(0.1, 20.0, 7):
        pt = EvaluationPoint(z, 1.0)
        gn = scattering_greens_numeric(pt, PerfectConductor())
        gc = greens_perfect_conductor(z, 1.0)
        assert abs(gn.xx / gc.xx - 1) < 1e-6
        assert abs(gn.zz / gc.zz - 1) < 1e-6
        gm = scattering_greens_numeric(pt, PerfectNonreciprocalMirror())
        assert abs(gm.xy / _mirror_xy(z, 1.0) - 1) < 1e-6


# 0, or at least 1e-3 in size: far smaller coefficients give subnormal
# entries, whose absolute resolution (5e-324) no relative tolerance can hold
_R = st.one_of(st.just(0j), st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0,
                                               allow_nan=False, allow_infinity=False))


@given(medium=st.one_of(
           st.builds(ConstantReflectionMedium, _R, _R, _R, _R),
           st.sampled_from([AxionMedium(epsilon=1.0, theta=math.pi),
                            AxionMedium(epsilon=1.0, theta=-math.pi)])),
       z=st.floats(1e-3, 100.0), xi=st.floats(0.01, 50.0))
@settings(max_examples=30, deadline=None)
def test_closed_form_matches_the_k_quadrature(medium, z, xi):
    # any k_par-independent reflection matrix, complex entries included, on
    # both frequency axes; the scale is the largest entry of either tensor.
    # The heights and frequencies reach both ends of the mapped path: x near
    # 0 (u -> inf) matters at small z, x near 1 at large |q| z.  There, from
    # 2 xi z ~ 700, both tensors are subnormal, and one subnormal spacing is
    # more than 1e-9 of them, so the scale is at least the smallest normal
    # double
    for omega in (1.0, [1j * xi]):
        closed = closed_form_greens(z, omega, medium.constant_reflection)
        numeric = numeric_greens(z, omega, medium)
        pairs = [(np.ravel(getattr(closed, n))[0], getattr(numeric, n)[0])
                 for n in ("xx", "zz", "xy")]
        scale = max(np.finfo(float).tiny, *(max(abs(a), abs(b)) for a, b in pairs))
        assert all(abs(a - b) <= 1e-9 * scale for a, b in pairs)


def test_imaginary_axis_holds_the_closed_form_to_rounding():
    # e^{-2 xi z} leaves the integral as one factor and k_par^2 = u (u + 2 xi)
    # is formed from the mapped offset u = t - xi, so the rounding of t is
    # not multiplied by 2 xi z: every entry holds to a few ulp up to
    # 2 xi z = 600 (a factor e^{-2 t z} inside gave 3e-14 there)
    medium = ConstantReflectionMedium(r_ss=0.3 + 0.1j, r_sp=-0.2j, r_ps=0.4,
                                      r_pp=0.7 - 0.3j)
    z = np.geomspace(1e-3, 100.0, 60)
    xi = np.geomspace(600.0, 1e-2, 60) / (2.0 * z)
    numeric = numeric_greens(z, 1j * xi, medium)
    closed = closed_form_greens(z, 1j * xi, medium.constant_reflection)
    for name in ("xx", "zz", "xy"):
        a, b = getattr(numeric, name), getattr(closed, name)
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b)), name


@pytest.mark.parametrize("epsilon", [0.25, 4.0, 16.0])
def test_default_tolerances_hold_a_tight_run(epsilon):
    # below and above epsilon = 1 the medium's lightline is off the path
    # k_perp = omega + i u: every entry at the default tolerances is within
    # 1e-12 of the tensor scale of a run 1000 times tighter
    medium = AxionMedium(epsilon=epsilon, theta=math.pi)
    z = np.linspace(0.05, 8.0, 40)
    g = numeric_greens(z, 1.0, medium)
    tight = numeric_greens(z, 1.0, medium, QuadratureConfig().tighter(1e-3))
    for name in ("xx", "zz", "xy"):
        ref = getattr(tight, name)
        assert np.abs(getattr(g, name) - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_real_axis_grid_evaluation_count():
    # evaluation counts do not depend on the machine: the 400-point omega_ti
    # grid at epsilon = 16 takes 40,890 from the start mesh (65,790 from [0, 1])
    g = numeric_greens(np.linspace(0.05, 8.0, 400), 1.0,
                       AxionMedium(epsilon=16.0, theta=math.pi))
    assert g.neval.sum() <= 45_000


def test_far_field_rate_converges_to_the_retarded_law():
    # e^{2 i omega z} is outside the integral, so some 5e4 wavelengths above
    # the surface cost what one does; the rate differs from the retarded
    # limit law by its next order, about 2e-12 Gamma_0 here
    medium = AxionMedium(epsilon=16.0, theta=math.pi)
    tr = canonical_transition("plus")
    gamma0 = free_space_rate_formula(tr)
    case = AsymptoticCase("retarded", medium, "rate")
    for zeta in np.linspace(2.9e5, 3.1e5, 5):
        assert numeric_greens(zeta, 1.0, medium).neval[0] <= 300
        rate = decay_rate(tr, zeta, medium)
        assert abs(rate - asymptotic(case, tr, zeta)) <= 1e-10 * gamma0, zeta


def test_single_channel_ss_only():
    # r_ss = -1 alone: G_xx = -e^{2iqz}/(16 pi z), no zz or xy response
    z, w = 0.8, 1.0
    g = scattering_greens_numeric(EvaluationPoint(z, w),
                                  ConstantReflectionMedium(r_ss=-1.0))
    oracle = -np.exp(2j * w * z) / (16 * np.pi * z)
    assert abs(g.xx / oracle - 1) < 1e-9
    assert g.zz == 0.0 and g.xy == 0.0


def test_single_channel_pp_only():
    z, w = 0.8, 1.0
    g = scattering_greens_numeric(EvaluationPoint(z, w),
                                  ConstantReflectionMedium(r_pp=1.0))
    oracle_xx = (-1 / (16 * np.pi * z) - 1j / (16 * np.pi * w * z ** 2)
                 + 1 / (32 * np.pi * w ** 2 * z ** 3)) * np.exp(2j * w * z)
    assert abs(g.xx / oracle_xx - 1) < 1e-9
    # the zz component is carried by the p channel alone
    assert abs(g.zz / _conductor_zz(z, w) - 1) < 1e-9
    assert g.xy == 0.0


def test_single_channel_cross_only():
    z, w = 0.8, 1.0
    g = scattering_greens_numeric(EvaluationPoint(z, w),
                                  ConstantReflectionMedium(r_sp=1.0, r_ps=1.0))
    assert abs(g.xy / _mirror_xy(z, w, sign=+1.0) - 1) < 1e-9
    assert g.xx == 0.0 and g.zz == 0.0
    # only the symmetric combination (r_sp + r_ps)/2 enters the xy kernel
    h = scattering_greens_numeric(EvaluationPoint(z, w),
                                  ConstantReflectionMedium(r_sp=1.0))
    assert abs(h.xy / (0.5 * g.xy) - 1) < 1e-12


def test_channel_sum_recomposes_conductor():
    z, w = 1.3, 1.0
    g_s = scattering_greens_numeric(EvaluationPoint(z, w),
                                    ConstantReflectionMedium(r_ss=-1.0))
    g_p = scattering_greens_numeric(EvaluationPoint(z, w),
                                    ConstantReflectionMedium(r_pp=1.0))
    gc = greens_perfect_conductor(z, w)
    assert abs((g_s.xx + g_p.xx) / gc.xx - 1) < 1e-9
    assert abs((g_s.zz + g_p.zz) / gc.zz - 1) < 1e-9


def test_zero_reflection_gives_zero_tensor():
    g = scattering_greens_numeric(EvaluationPoint(0.5, 1.0),
                                  ConstantReflectionMedium())
    assert max(abs(g.xx), abs(g.zz), abs(g.xy)) <= 1e-12


def test_pure_axion_cross_block_scales_like_half_delta():
    m = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    dlt = m.delta
    exact_scale = 2.0 * dlt / (4.0 + dlt ** 2)   # = (Delta/2)(1 + O(Delta^2))
    for z in (0.2, 1.0, 3.0, 10.0):
        g = scattering_greens_numeric(EvaluationPoint(z, 1.0), m)
        ref = _mirror_xy(z, 1.0, sign=-1.0)
        assert abs(g.xy / (exact_scale * ref) - 1) < 1e-9
        assert abs(g.xy / (0.5 * dlt * ref) - 1) < 1e-4


def test_cross_block_odd_harmonics_of_theta():
    g1 = scattering_greens_numeric(EvaluationPoint(1.0, 1.0),
                                   AxionMedium(theta=math.pi))
    g3 = scattering_greens_numeric(EvaluationPoint(1.0, 1.0),
                                   AxionMedium(theta=3 * math.pi))
    assert abs(g1.xy / g3.xy - 1.0 / 3.0) < 1e-3 / 3.0


def test_imaginary_frequency_tensor_is_real():
    g = scattering_greens_numeric(EvaluationPoint(0.7, 2.3j),
                                  AxionMedium(epsilon=16.0, theta=math.pi))
    assert max(abs(g.xx.imag), abs(g.zz.imag), abs(g.xy.imag)) <= 1e-15
    gc = greens_perfect_conductor(0.7, 2.3j)
    assert max(abs(gc.xx.imag), abs(gc.zz.imag)) <= 1e-15


def test_imaginary_axis_batch_matches_per_point_loop():
    medium = AxionMedium(epsilon=16.0, theta=math.pi)
    for zeta in (0.01, 1.0, 10.0):
        # the xi nodes of the nested nonresonant oracle in test_atomics,
        # xi = u c / 2z
        xi = np.geomspace(0.02, 50.0, 9) / (2.0 * zeta)
        batch = numeric_greens(zeta, 1j * xi, medium)
        for j, x in enumerate(xi):
            one = scattering_greens_numeric(EvaluationPoint(zeta, 1j * x), medium)
            assert one == batch.point(j)


def test_imaginary_axis_rejects_bad_points():
    medium = AxionMedium(epsilon=16.0)
    for z, omega in ((0.0, [1j]), (np.inf, [1j]), (np.nan, [1j]), (1.0, [1j, 0j]),
                     (1.0, [complex(0, np.nan)]), (1.0, [complex(0, np.inf)]),
                     (1.0, [-2j])):
        with pytest.raises(ValueError):
            numeric_greens(z, omega, medium)
    # the real axis takes one finite omega > 0; nothing off either axis
    for omega in (0.0, -1.0, np.inf, np.nan, 1.0 + 0.5j, [1.0, 1.0]):
        with pytest.raises(ValueError, match="omega"):
            numeric_greens([1.0, 1.0], omega, medium)


def test_config_caps_reach_the_quadrature():
    # the start mesh has 5 panels, which a budget of 1 cannot hold; at
    # zeta = 0.5 one of them must split, which a budget of 5 forbids, and a
    # budget of 10 gives the default run's bits
    medium = AxionMedium(epsilon=16.0, theta=math.pi)
    for w in (1.0, 1.0j):
        point = EvaluationPoint(0.5, w)
        for budget in (1, 5):
            with pytest.raises(QuadratureError,
                               match=f"budget {budget} exhausted in integral 0"):
                scattering_greens_numeric(point, medium,
                                          config=QuadratureConfig(max_panels=budget))
        assert (scattering_greens_numeric(point, medium,
                                          config=QuadratureConfig(max_panels=10))
                == scattering_greens_numeric(point, medium))


def test_tightened_tolerance_stays_within_reported_error():
    pt = EvaluationPoint(1.3, 1.0)
    m = AxionMedium(epsilon=16.0, theta=math.pi)
    g1 = scattering_greens_numeric(pt, m)
    g2 = scattering_greens_numeric(pt, m, config=QuadratureConfig().tighter(0.01))
    diff = max(abs(g1.xx - g2.xx), abs(g1.zz - g2.zz), abs(g1.xy - g2.xy))
    assert diff <= max(g1.quad_error, 1e-12)


def test_generalized_parts_basic_algebra():
    a = np.array([[1.0 + 2.0j, 0.5j, 0.0],
                  [-0.5, 2.0, 1.0 - 1.0j],
                  [0.0, 0.3j, -1.0j]])
    re, im = generalized_re(a), generalized_im(a)
    assert np.array_equal(re, re.conj().T)
    assert np.array_equal(im, im.conj().T)
    assert np.abs(re + 1j * im - a).max() < 1e-14


def test_generalized_im_of_anti_hermitian_diagonal():
    # A = -i*I is anti-Hermitian: its generalized Im is -I, generalized Re is 0
    a = -1j * np.eye(3)
    assert np.allclose(generalized_im(a), -np.eye(3))
    assert np.allclose(generalized_re(a), 0.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_generalized_parts_random_dyadics(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    re, im = generalized_re(a), generalized_im(a)
    assert np.array_equal(re, re.conj().T)
    assert np.array_equal(im, im.conj().T)
    assert np.abs(re + 1j * im - a).max() < 1e-14


@pytest.mark.parametrize("omega", [-1j, -1.0, 1.0 + 1.0j, 0.0, 1j * math.inf, math.nan,
                                   [1.0, -1j], [2j, 1.0 + 1e-300j]])
def test_both_tensor_routes_reject_the_same_frequencies(omega):
    # off the positive real and imaginary half-axes the closed form's
    # e^{2 i omega z} grows with z (at omega = -1j the conductor's xx read
    # -0.22 and -0.88 at z = 1 and 2); the closed form and the quadrature
    # share one check, and EvaluationPoint applies it too
    for medium in (PerfectConductor(), AxionMedium(epsilon=4.0)):
        with pytest.raises(ValueError, match="omega must be finite real-positive"):
            greens_grid(medium, [1.0, 2.0], omega)
    with pytest.raises(ValueError, match="frequency"):
        EvaluationPoint(1.0, np.ravel(omega)[-1])


def test_both_tensor_routes_take_the_same_shapes_of_omega():
    # one real omega, or i*xi per height; an array of real omega is refused
    # by the closed form as by the quadrature, with one message
    z, xi = np.array([1.0, 2.0]), np.array([0.5, 1.5])
    for medium in (PerfectConductor(), AxionMedium(epsilon=4.0)):
        for omega in (1.0, 1j * xi):
            assert greens_grid(medium, z, omega).xx.shape == (2,)
        with pytest.raises(ValueError, match=r"need one real omega, or an array of i\*xi"):
            greens_grid(medium, z, [1.0, 2.0])


def test_both_routes_take_the_same_shapes_of_heights(monkeypatch):
    # one height is a grid of one, and heights of more than one dimension
    # are refused before any quadrature, by the closed forms as by the
    # quadrature; a 2x2 grid used to come out 2x2 from the closed forms
    # and fail inside the integrand or the engine on the quadrature route
    tr = canonical_transition()
    for medium in (PerfectConductor(), AxionMedium(epsilon=16.0, theta=math.pi)):
        assert greens_grid(medium, 0.5, 1.0).xx.shape == (1,)
        assert nonresonant_shift_grid(tr, 0.5, medium).im_term.shape == (1,)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature started")

    for module in ("cpshift.greens", "cpshift.atomics"):
        monkeypatch.setattr(f"{module}.integrate_batch", no_quadrature)
    for medium in (PerfectConductor(), AxionMedium(epsilon=16.0, theta=math.pi)):
        for z in ([[0.5, 1.0], [2.0, 3.0]], [[1.0]]):
            with pytest.raises(ValueError, match="1-d array"):
                greens_grid(medium, z, 1.0)
            with pytest.raises(ValueError, match="1-d array"):
                nonresonant_shift_grid(tr, z, medium)


def test_evaluation_point_validation():
    for z in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="height"):
            EvaluationPoint(z, 1.0)
    for w in (1.0 + 1.0j,    # neither real nor purely imaginary
              -2.0j, 0.0, math.inf, math.nan, complex(0.0, math.inf),
              complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="frequency"):
            EvaluationPoint(1.0, w)
    assert EvaluationPoint(1.0, 2.0j).is_imaginary
    assert not EvaluationPoint(1.0, 2.0).is_imaginary


def _matrix(xx, zz, xy):
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = m[1, 1] = xx
    m[2, 2] = zz
    m[0, 1], m[1, 0] = xy, -xy
    return m


def test_sandwich_matches_the_full_product_and_a_point_its_batch():
    # s = A xx + C zz + iB xy is a real sum per part: it holds the full 3x3
    # product (d @ M) @ conj(d) to rounding, a point equals its batch bit
    # for bit, and conj(d) reads the tensor with xy negated, bit for bit
    rng = np.random.default_rng(2024)
    n = 2000
    xx, zz, xy = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
                  + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
                  for _ in range(3))
    g = PlanarTensors(xx, zz, xy, np.zeros(n), np.zeros(n, dtype=int))
    flipped = g._replace(xy=-xy)
    dipoles = [circular_dipole(1.7, "plus"), circular_dipole(1.7, "minus"),
               np.array([0.6, 0.0, 0.8j]), np.array([0.0, 0.0, 1.0])]
    dipoles += list(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    for d in dipoles:
        s = g.sandwich(d)
        full = np.array([(d @ _matrix(*t)) @ np.conj(d) for t in zip(xx, zz, xy)])
        scale = (np.abs(xx) + np.abs(zz) + np.abs(xy)) * np.vdot(d, d).real
        assert np.all(np.abs(s.real - full.real) <= 1e-14 * scale)
        assert np.all(np.abs(s.imag - full.imag) <= 1e-14 * scale)
        for j in range(0, n, 7):
            one = g.point(j).sandwich(d)
            assert one.real == s[j].real and one.imag == s[j].imag
        conj, read = g.sandwich(np.conj(d)), flipped.sandwich(d)
        assert np.array_equal(conj, read)
        assert np.array_equal(np.signbit(conj.real), np.signbit(read.real))
        assert np.array_equal(np.signbit(conj.imag), np.signbit(read.imag))
