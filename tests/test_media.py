"""Reflection matrices: Fresnel-with-axion coefficients, limits, symmetries."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpshift.constants import ALPHA_FS
from cpshift.media import (AxionMedium, ConstantReflectionMedium, PerfectConductor,
                           PerfectNonreciprocalMirror, PoleError,
                           ReflectionMatrix, delta, nonretarded_limit_coefficients,
                           perpendicular_wavenumber, retarded_limit_coefficients)


def test_axion_mismatch_values():
    assert math.isclose(delta(0.0, math.pi), ALPHA_FS, rel_tol=1e-15)
    assert math.isclose(delta(0.0, -math.pi), -ALPHA_FS, rel_tol=1e-15)
    assert math.isclose(delta(0.0, 3 * math.pi), 3 * ALPHA_FS, rel_tol=1e-15)
    assert delta(math.pi, math.pi) == 0.0


def test_perpendicular_wavenumber_branches():
    # normal incidence, vacuum: k_perp = omega/c, purely real
    assert perpendicular_wavenumber(1.0, 0.0) == pytest.approx(1.0)
    # beyond the lightline: k_perp = i*sqrt(k_par^2 - q^2)
    kz = perpendicular_wavenumber(1.0, 2.0)
    assert kz == pytest.approx(1j * math.sqrt(3.0))
    # imaginary frequency: k_perp = i*sqrt(xi^2/c^2 + k_par^2)
    kz = perpendicular_wavenumber(2.0j, 1.5)
    assert kz == pytest.approx(1j * 2.5)
    with pytest.raises(ValueError):
        perpendicular_wavenumber(0.0, 0.0)


def test_perpendicular_wavenumber_vectorized_branch_signs():
    k_par = np.array([0.0, 0.5, 1.0, 2.0, 10.0])
    kz = perpendicular_wavenumber(1.0, k_par, epsilon=4.0)
    assert np.all(kz.imag >= 0)
    assert np.all(kz.real >= 0)
    # scalar and vector paths agree elementwise
    for kp, v in zip(k_par, kz):
        assert v == pytest.approx(perpendicular_wavenumber(1.0, float(kp), epsilon=4.0))


def test_frequency_array_aligned_with_k_par():
    m = AxionMedium(epsilon=16.0, theta=math.pi)
    omega = np.array([0.5j, 2.0j, 1.0, 0.0])
    k_par = np.array([0.3, 0.0, 2.0, 1.5])
    rv = m.reflection(omega, k_par)
    for i, (w, kp) in enumerate(zip(omega, k_par)):
        rs = m.reflection(complex(w), float(kp))
        for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
            assert getattr(rv, name)[i] == pytest.approx(getattr(rs, name), rel=1e-14)
    # only a node with omega = k_par = 0 is undefined
    with pytest.raises(ValueError):
        perpendicular_wavenumber(np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def test_perfect_conductor_coefficients():
    r = PerfectConductor().reflection(1.0, 0.7)
    assert (r.r_ss, r.r_pp, r.r_sp, r.r_ps) == (-1.0, 1.0, 0.0, 0.0)
    rv = PerfectConductor().reflection(1.0, np.array([0.1, 5.0]))
    assert np.all(rv.r_ss == -1.0) and np.all(rv.r_pp == 1.0)


def test_mirror_coefficients_and_sign_validation():
    r = PerfectNonreciprocalMirror(sign=-1.0).reflection(1.0, 0.3)
    assert (r.r_ss, r.r_pp, r.r_sp, r.r_ps) == (0.0, 0.0, -1.0, -1.0)
    r = PerfectNonreciprocalMirror(sign=1.0).reflection(1.0, 0.3)
    assert r.r_sp == 1.0 and r.r_ps == 1.0
    for sign in (0.5, math.nan, True, np.True_):   # True == 1, but is no sign
        with pytest.raises(ValueError):
            PerfectNonreciprocalMirror(sign=sign)


def test_vacuum_axion_theta_zero_reflects_nothing():
    r = AxionMedium(epsilon=1.0, mu=1.0, theta=0.0).reflection(1.0, 0.4)
    assert np.allclose(r.as_array(), 0.0)


def test_dielectric_normal_incidence():
    # eps=16, theta=0, k_par=0: r_ss = (1-4)/(1+4), r_pp = (16-4)/(16+4)
    r = AxionMedium(epsilon=16.0, theta=0.0).reflection(1.0, 0.0)
    assert r.r_ss == pytest.approx(-0.6, rel=1e-14)
    assert r.r_pp == pytest.approx(0.6, rel=1e-14)
    assert r.r_sp == 0.0


def test_pure_axion_coefficients_k_independent():
    m = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    dd = m.delta ** 2
    for k_par in (0.0, 0.4, 0.99, 2.0, 50.0):
        r = m.reflection(1.0, k_par)
        assert r.r_sp == pytest.approx(-2.0 * m.delta / (4.0 + dd), rel=1e-13)
        assert r.r_ps == pytest.approx(r.r_sp, rel=1e-15)
        assert r.r_ss == pytest.approx(-dd / (4.0 + dd), rel=1e-12)
        assert r.r_pp == pytest.approx(-r.r_ss, rel=1e-12)


def test_retarded_coefficients_match_normal_incidence_any_frequency():
    m = AxionMedium(epsilon=16.0, theta=math.pi)
    ret = retarded_limit_coefficients(m)
    assert ret.r_ss == pytest.approx(-0.6, rel=1e-3)   # Delta^2 correction ~1e-5
    assert ret.r_pp == pytest.approx(0.6, rel=1e-3)
    for omega in (0.3, 1.0, 7.0, 2.0j):
        r = m.reflection(omega, 0.0)
        for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
            assert getattr(r, name) == pytest.approx(getattr(ret, name), rel=1e-12)


def test_nonretarded_coefficients_and_deep_evanescent_limit():
    m = AxionMedium(epsilon=16.0, theta=0.0)
    nr = nonretarded_limit_coefficients(m)
    assert nr.r_pp == pytest.approx(15.0 / 17.0, rel=1e-15)
    assert nr.r_ss == 0.0
    m = AxionMedium(epsilon=16.0, theta=math.pi)
    nr = nonretarded_limit_coefficients(m)
    # the k1/k2 mismatch decays as (eps - 1)/(2 k^2), so k must push well
    # past sqrt(eps)/Delta before the Delta^2-suppressed entries stabilize
    r = m.reflection(1.0, 1.0e5)
    for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
        got, want = getattr(r, name), getattr(nr, name)
        assert abs(got - want) <= 1e-4 * max(abs(want), ALPHA_FS)


def test_limit_coefficients_of_ideal_mirrors_are_their_constants():
    for fn in (retarded_limit_coefficients, nonretarded_limit_coefficients):
        rc = fn(PerfectConductor())
        assert (rc.r_ss, rc.r_pp, rc.r_sp) == (-1.0, 1.0, 0.0)
        rm = fn(PerfectNonreciprocalMirror(sign=1.0))
        assert (rm.r_sp, rm.r_ps, rm.r_ss) == (1.0, 1.0, 0.0)


def test_limit_coefficients_are_real_floats_of_the_reflection_model():
    for m in (AxionMedium(epsilon=16.0, theta=math.pi), AxionMedium(epsilon=2.5, theta=-3.0)):
        for fn, (omega, k_par) in ((retarded_limit_coefficients, (1.0, 0.0)),
                                   (nonretarded_limit_coefficients, (0.0, 1.0))):
            rc, r = fn(m), m.reflection(omega, k_par)
            for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
                assert type(getattr(rc, name)) is float
                assert getattr(rc, name) == complex(getattr(r, name)).real
    with pytest.raises(ValueError):
        retarded_limit_coefficients(ConstantReflectionMedium(r_sp=0.25j))


def test_theta_sign_equivariance():
    plus = AxionMedium(epsilon=9.0, theta=math.pi).reflection(1.0, 0.6)
    minus = AxionMedium(epsilon=9.0, theta=-math.pi).reflection(1.0, 0.6)
    assert minus.r_sp == pytest.approx(-plus.r_sp, rel=1e-15)
    assert minus.r_ps == pytest.approx(-plus.r_ps, rel=1e-15)
    assert minus.r_ss == pytest.approx(plus.r_ss, rel=1e-15)
    assert minus.r_pp == pytest.approx(plus.r_pp, rel=1e-15)


def test_theta_to_zero_continuity():
    base = AxionMedium(epsilon=4.0, theta=0.0).reflection(1.0, 0.5)
    tiny = AxionMedium(epsilon=4.0, theta=1e-8).reflection(1.0, 0.5)
    assert abs(tiny.r_ss - base.r_ss) < 1e-7
    assert abs(tiny.r_sp) < 1e-10


def test_huge_axion_coupling_approaches_conductor():
    r = AxionMedium(epsilon=1.0, theta=1e6 * math.pi).reflection(1.0, 0.4)
    assert r.r_ss == pytest.approx(-1.0, abs=1e-6)
    assert r.r_pp == pytest.approx(1.0, abs=1e-6)
    assert abs(r.r_sp) < 1e-3


def test_imaginary_frequency_entries_are_real():
    r = AxionMedium(epsilon=16.0, theta=math.pi).reflection(2.3j, 0.8)
    for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
        assert complex(getattr(r, name)).imag == 0.0


@given(lam=st.floats(1e-3, 1e3), xi=st.floats(0.01, 100.0),
       k_par=st.floats(0.0, 1e3), epsilon=st.floats(0.1, 50.0),
       theta=st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_reflection_is_scale_invariant_on_the_imaginary_axis(lam, xi, k_par, epsilon,
                                                              theta):
    # r(i lam xi, lam k_par) = r(i xi, k_par): every medium is nondispersive,
    # which lets the nonresonant shift read P(s) at one xi for all of them
    for medium in (AxionMedium(epsilon=epsilon, theta=theta), PerfectConductor(),
                   PerfectNonreciprocalMirror(),
                   ConstantReflectionMedium(r_ss=0.3, r_sp=-0.2, r_ps=0.1, r_pp=0.7)):
        base = medium.reflection(1j * xi, k_par).as_array()
        scaled = medium.reflection(1j * lam * xi, lam * k_par).as_array()
        assert np.allclose(scaled, base, rtol=1e-12, atol=1e-15)


def test_reflection_vectorized_matches_scalar():
    m = AxionMedium(epsilon=7.0, theta=2 * math.pi)
    k_par = np.array([0.0, 0.3, 0.9, 1.5, 40.0])
    rv = m.reflection(1.0, k_par)
    for i, kp in enumerate(k_par):
        rs = m.reflection(1.0, float(kp))
        for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
            # array and scalar paths may round differently in the last ulp
            assert abs(getattr(rv, name)[i] - getattr(rs, name)) <= 1e-14


def test_constant_medium_and_dispatch_helper():
    m = ConstantReflectionMedium(r_sp=0.25j)
    r = m.reflection(1.0, np.array([0.1, 0.2]))
    assert np.all(r.r_sp == 0.25j) and np.all(r.r_ss == 0.0)
    assert r.r_sp.shape == (2,)


@given(k_par=st.floats(0.0, 1e3), xi=st.floats(0.01, 100.0), theta=st.floats(-10.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_constant_reflection_is_the_reflection_at_every_k(k_par, xi, theta):
    # the media that state a constant matrix reflect with it everywhere;
    # the axion half-space states one at epsilon = 1 only
    for medium in (PerfectConductor(), PerfectNonreciprocalMirror(sign=1.0),
                   ConstantReflectionMedium(r_ss=0.3j, r_sp=-0.2, r_ps=0.1, r_pp=0.7),
                   AxionMedium(epsilon=1.0, theta=theta)):
        const = medium.constant_reflection.as_array()
        for omega in (1j * xi, xi):
            if omega == k_par:
                continue  # the axion's lightline pole
            r = medium.reflection(omega, k_par).as_array()
            assert np.allclose(r, const, rtol=1e-12, atol=1e-15)
    assert AxionMedium(epsilon=1.0 + 1e-12, theta=theta).constant_reflection is None


def test_reflection_matrix_container():
    r = ReflectionMatrix(r_ss=-0.5, r_sp=0.1, r_ps=0.1, r_pp=0.5)
    assert (r.r_ss, r.r_sp, r.r_ps, r.r_pp) == (-0.5, 0.1, 0.1, 0.5)
    assert np.allclose(r.as_array(), [[-0.5, 0.1], [0.1, 0.5]])


def test_medium_validation():
    with pytest.raises(ValueError):
        AxionMedium(epsilon=-1.0)
    with pytest.raises(ValueError):
        AxionMedium(mu=0.0)
    assert issubclass(PoleError, ArithmeticError)


def test_medium_rejects_non_finite_and_magnetic_parameters():
    # mu != 1 would break r_ss = -r_pp at normal incidence: the weights
    # are those of a nonmagnetic medium
    AxionMedium(epsilon=4.0, mu=1.0)
    for bad in (dict(epsilon=math.nan), dict(epsilon=math.inf), dict(mu=2.5),
                dict(mu=math.nan), dict(theta=math.inf), dict(theta=math.nan)):
        with pytest.raises(ValueError):
            AxionMedium(**bad)


def test_constant_medium_rejects_non_finite_coefficients():
    ConstantReflectionMedium(r_ss=0.3 - 0.1j, r_pp=np.complex128(0.5))
    for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
        for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                ConstantReflectionMedium(**{name: bad})


def test_pole_error_names_the_node():
    # eps = mu = 1: the shared denominator vanishes on the lightline k_par = q
    with pytest.raises(PoleError) as excinfo:
        AxionMedium(epsilon=1.0).reflection(1.0, np.array([0.5, 2.0, 1.0, 1.0]))
    assert excinfo.value.owner == 2


@given(eps=st.floats(1.0, 100.0), theta_pi=st.floats(-4.0, 4.0),
       kfrac=st.floats(0.0, 0.999), omega=st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_propagating_reflection_never_exceeds_unit_power(eps, theta_pi, kfrac, omega):
    # lossless half-space: per-channel reflected power bounded by 1
    r = AxionMedium(epsilon=eps, theta=theta_pi * math.pi).reflection(
        omega, kfrac * omega)
    assert abs(r.r_ss) ** 2 + abs(r.r_ps) ** 2 <= 1.0 + 1e-9
    assert abs(r.r_pp) ** 2 + abs(r.r_sp) ** 2 <= 1.0 + 1e-9
