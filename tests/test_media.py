"""Reflection matrices: Fresnel-with-axion coefficients, limits, symmetries."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cpshift.constants import ALPHA_FS
from cpshift.media import (EPSILON_MAX, AxionMedium, ConstantReflectionMedium,
                           PerfectConductor, PerfectNonreciprocalMirror, PoleError,
                           ReflectionMatrix, delta, nonretarded_limit_coefficients,
                           retarded_limit_coefficients)


def _k_perp(omega, k_par, epsilon=1.0):
    """sqrt(eps omega^2 - k_par^2) on the branch Im >= 0, and Re >= 0 where
    it is real: np.sqrt of a negative real with a -0j imaginary part lands
    on the wrong side of the cut, so fold both signs back."""
    kz = np.sqrt(epsilon * np.asarray(omega) ** 2 - np.asarray(k_par, dtype=float) ** 2
                 + 0j)
    kz = np.where(kz.imag < 0, -kz, kz)
    kz = np.where((kz.imag == 0) & (kz.real < 0), -kz, kz)
    return kz[()]


def _at_k_par(medium, omega, k_par):
    """The reflection at in-plane wavenumber k_par: the media take the
    vacuum k_perp of the atom's side."""
    return medium.reflection(omega, _k_perp(omega, k_par))


def _matrix(r):
    """The 2x2 array [[r_ss, r_sp], [r_ps, r_pp]]."""
    return np.array([[r.r_ss, r.r_sp], [r.r_ps, r.r_pp]])


def test_axion_mismatch_values():
    assert math.isclose(delta(0.0, math.pi), ALPHA_FS, rel_tol=1e-15)
    assert math.isclose(delta(0.0, -math.pi), -ALPHA_FS, rel_tol=1e-15)
    assert math.isclose(delta(0.0, 3 * math.pi), 3 * ALPHA_FS, rel_tol=1e-15)
    assert delta(math.pi, math.pi) == 0.0


def test_frequency_array_aligned_with_k_par():
    m = AxionMedium(epsilon=16.0, theta=math.pi)
    omega = np.array([0.5j, 2.0j, 1.0, 0.0])
    k_par = np.array([0.3, 0.0, 2.0, 1.5])
    rv = _at_k_par(m, omega, k_par)
    for i, (w, kp) in enumerate(zip(omega, k_par)):
        rs = _at_k_par(m, complex(w), float(kp))
        for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
            assert getattr(rv, name)[i] == pytest.approx(getattr(rs, name), rel=1e-14)


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
    r = _at_k_par(AxionMedium(epsilon=1.0, mu=1.0, theta=0.0), 1.0, 0.4)
    assert np.allclose(_matrix(r), 0.0)


def test_dielectric_normal_incidence():
    # eps=16, theta=0, k_par=0 (k_perp = omega): r_ss = (1-4)/(1+4),
    # r_pp = (16-4)/(16+4)
    r = AxionMedium(epsilon=16.0, theta=0.0).reflection(1.0, 1.0)
    assert r.r_ss == pytest.approx(-0.6, rel=1e-14)
    assert r.r_pp == pytest.approx(0.6, rel=1e-14)
    assert r.r_sp == 0.0


def test_pure_axion_coefficients_k_independent():
    m = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    dd = m.delta ** 2
    for k_par in (0.0, 0.4, 0.99, 2.0, 50.0):
        r = _at_k_par(m, 1.0, k_par)
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
        r = _at_k_par(m, omega, 0.0)
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
    r = _at_k_par(m, 1.0, 1.0e5)
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
        # k_par = 0 at omega = 1, and k_par = 1 at omega = 0
        for fn, (omega, k_perp) in ((retarded_limit_coefficients, (1.0, 1.0)),
                                    (nonretarded_limit_coefficients, (0.0, 1j))):
            rc, r = fn(m), m.reflection(omega, k_perp)
            for name in ("r_ss", "r_sp", "r_ps", "r_pp"):
                assert type(getattr(rc, name)) is float
                assert getattr(rc, name) == complex(getattr(r, name)).real
    with pytest.raises(ValueError):
        retarded_limit_coefficients(ConstantReflectionMedium(r_sp=0.25j))


def test_theta_sign_equivariance():
    plus = _at_k_par(AxionMedium(epsilon=9.0, theta=math.pi), 1.0, 0.6)
    minus = _at_k_par(AxionMedium(epsilon=9.0, theta=-math.pi), 1.0, 0.6)
    assert minus.r_sp == pytest.approx(-plus.r_sp, rel=1e-15)
    assert minus.r_ps == pytest.approx(-plus.r_ps, rel=1e-15)
    assert minus.r_ss == pytest.approx(plus.r_ss, rel=1e-15)
    assert minus.r_pp == pytest.approx(plus.r_pp, rel=1e-15)


def test_theta_to_zero_continuity():
    base = _at_k_par(AxionMedium(epsilon=4.0, theta=0.0), 1.0, 0.5)
    tiny = _at_k_par(AxionMedium(epsilon=4.0, theta=1e-8), 1.0, 0.5)
    assert abs(tiny.r_ss - base.r_ss) < 1e-7
    assert abs(tiny.r_sp) < 1e-10


def test_huge_axion_coupling_approaches_conductor():
    r = _at_k_par(AxionMedium(epsilon=1.0, theta=1e6 * math.pi), 1.0, 0.4)
    assert r.r_ss == pytest.approx(-1.0, abs=1e-6)
    assert r.r_pp == pytest.approx(1.0, abs=1e-6)
    assert abs(r.r_sp) < 1e-3


def test_imaginary_frequency_entries_are_real():
    r = _at_k_par(AxionMedium(epsilon=16.0, theta=math.pi), 2.3j, 0.8)
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
        base = _matrix(_at_k_par(medium, 1j * xi, k_par))
        scaled = _matrix(_at_k_par(medium, 1j * lam * xi, lam * k_par))
        assert np.allclose(scaled, base, rtol=1e-12, atol=1e-15)


def test_reflection_vectorized_matches_scalar():
    m = AxionMedium(epsilon=7.0, theta=2 * math.pi)
    k_par = np.array([0.0, 0.3, 0.9, 1.5, 40.0])
    rv = _at_k_par(m, 1.0, k_par)
    for i, kp in enumerate(k_par):
        rs = _at_k_par(m, 1.0, float(kp))
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
        const = _matrix(medium.constant_reflection)
        for omega in (1j * xi, xi):
            if omega == k_par:
                continue  # the axion's lightline pole
            r = _matrix(_at_k_par(medium, omega, k_par))
            assert np.allclose(r, const, rtol=1e-12, atol=1e-15)
    assert AxionMedium(epsilon=1.0 + 1e-12, theta=theta).constant_reflection is None


def test_reflection_matrix_container():
    r = ReflectionMatrix(r_ss=-0.5, r_sp=0.1, r_ps=0.1, r_pp=0.5)
    assert (r.r_ss, r.r_sp, r.r_ps, r.r_pp) == (-0.5, 0.1, 0.1, 0.5)


def test_medium_validation():
    with pytest.raises(ValueError):
        AxionMedium(epsilon=-1.0)
    assert AxionMedium(epsilon=EPSILON_MAX).epsilon == 1e100
    with pytest.raises(ValueError, match="at most 1e"):
        AxionMedium(epsilon=np.nextafter(EPSILON_MAX, math.inf))
    with pytest.raises(ValueError):
        AxionMedium(mu=0.0)
    assert issubclass(PoleError, ArithmeticError)


def test_medium_rejects_non_finite_and_magnetic_parameters():
    # mu != 1 would break r_ss = -r_pp at normal incidence: the weights
    # are those of a nonmagnetic medium
    AxionMedium(epsilon=4.0, mu=1.0)
    for bad in (dict(epsilon=math.nan), dict(epsilon=math.inf), dict(mu=2.5),
                dict(mu=math.nan), dict(theta=math.inf), dict(theta=math.nan),
                dict(epsilon=True), dict(epsilon=np.True_), dict(theta=True),
                dict(theta=np.False_)):   # True == 1, but is no permittivity or angle
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
        _at_k_par(AxionMedium(epsilon=1.0), 1.0, np.array([0.5, 2.0, 1.0, 1.0]))
    assert excinfo.value.owner == 2


@given(eps=st.floats(1.0, 100.0), theta_pi=st.floats(-4.0, 4.0),
       kfrac=st.floats(0.0, 0.999), omega=st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_propagating_reflection_never_exceeds_unit_power(eps, theta_pi, kfrac, omega):
    # lossless half-space: per-channel reflected power bounded by 1
    r = _at_k_par(AxionMedium(epsilon=eps, theta=theta_pi * math.pi), omega,
                  kfrac * omega)
    assert abs(r.r_ss) ** 2 + abs(r.r_ps) ** 2 <= 1.0 + 1e-9
    assert abs(r.r_pp) ** 2 + abs(r.r_sp) ** 2 <= 1.0 + 1e-9


def _fresnel_at_k_par(medium, omega, k_par):
    """The coefficients from k_par: both wavenumbers by `_k_perp`, then the
    Fresnel-with-axion formulas."""
    k1 = _k_perp(omega, k_par)
    k2 = _k_perp(omega, k_par, medium.epsilon)
    eps, dd = medium.epsilon, medium.delta ** 2
    den = (k1 + k2) * (eps * k1 + k2) + k1 * k2 * dd
    return np.array([[(k1 - k2) * (eps * k1 + k2) - k1 * k2 * dd,
                      -2.0 * k1 * k2 * medium.delta],
                     [-2.0 * k1 * k2 * medium.delta,
                      (eps * k1 - k2) * (k1 + k2) + k1 * k2 * dd]]) / den


@given(epsilon=st.floats(0.1, 50.0), theta=st.floats(-10.0, 10.0),
       kfrac=st.floats(0.0, 20.0), w=st.floats(0.1, 10.0), imaginary=st.booleans())
@settings(max_examples=200, deadline=None)
def test_reflection_from_k_perp_matches_the_k_par_formulas(epsilon, theta, kfrac, w,
                                                           imaginary):
    # k2 = sqrt(k1^2 + (eps - 1) omega^2) with one fold is the k2 of k_par on
    # both axes, on both sides of the medium's lightline k_par = sqrt(eps) q;
    # right at it both routes carry the rounding of k2^2 through a square
    # root, and at epsilon = 1 the vacuum lightline is a pole
    assume(abs(kfrac - math.sqrt(epsilon)) >= 1e-3 and kfrac != 1.0)
    medium = AxionMedium(epsilon=epsilon, theta=theta)
    omega = 1j * w if imaginary else w
    got = _matrix(_at_k_par(medium, omega, kfrac * w))
    want = _fresnel_at_k_par(medium, omega, kfrac * w)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
