"""Rates, resonant/nonresonant shifts, asymptotic laws, difference laws."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import cpshift
from cpshift.atomics import (_BELOW, _BLOCK, AsymptoticCase, _closed_form_nonresonant,
                             _moment_table, _moments, _series, _tensor_quantities,
                             asymptotic, axion_difference,
                             decay_rate, greens_grid, greens_tensor, nonresonant_shift,
                             nonresonant_shift_grid, nonresonant_shift_terms,
                             resonant_shift, self_consistent_shift, total_shift)
from cpshift.greens import numeric_greens
from cpshift.media import (AxionMedium, ConstantReflectionMedium, PerfectConductor,
                           PerfectNonreciprocalMirror, PoleError, _AxionDifference)
from cpshift.quadrature import QuadratureConfig, QuadratureError, integrate
from cpshift.scan import ScanError, _scan_values
from cpshift.units import (Transition, canonical_transition, circular_dipole,
                           free_space_rate_formula)

TR = canonical_transition("plus")
COND = PerfectConductor()
MIR = PerfectNonreciprocalMirror()          # sign -1
MIR_P = PerfectNonreciprocalMirror(sign=1.0)

# scaled closed forms for the canonical circular dipole (|d|^2 = 3 pi, w = 1);
# rederived by inserting the closed-form tensors into the rate/shift formulas
def cond_rate(z):
    return (-0.75 * np.sin(2 * z) / z - 0.375 * np.cos(2 * z) / z ** 2
            + 0.1875 * np.sin(2 * z) / z ** 3)


def cond_res(z):
    return (0.375 * np.cos(2 * z) / z - 0.1875 * np.sin(2 * z) / z ** 2
            - 0.09375 * np.cos(2 * z) / z ** 3)


def mir_rate(z):
    return 0.75 * np.cos(2 * z) / z - 0.375 * np.sin(2 * z) / z ** 2


def mir_res(z):
    return 0.375 * np.sin(2 * z) / z + 0.1875 * np.cos(2 * z) / z ** 2


ZS = (0.3, 1.7, 5.0, 12.0)


def test_conductor_rate_and_shift_closed_forms():
    for z in ZS:
        assert decay_rate(TR, z, COND) == pytest.approx(cond_rate(z), rel=1e-12)
        assert resonant_shift(TR, z, COND) == pytest.approx(cond_res(z), rel=1e-12)


def test_mirror_rate_and_shift_closed_forms():
    for z in ZS:
        assert decay_rate(TR, z, MIR) == pytest.approx(mir_rate(z), rel=1e-12)
        assert resonant_shift(TR, z, MIR) == pytest.approx(mir_res(z), rel=1e-12)


def test_mirror_sign_and_handedness_flips():
    minus = canonical_transition("minus")
    for z in (0.7, 2.2):
        base = decay_rate(TR, z, MIR)
        assert decay_rate(TR, z, MIR_P) == pytest.approx(-base, rel=1e-15)
        assert decay_rate(minus, z, MIR) == pytest.approx(-base, rel=1e-15)
        # the conductor couples to |d|^2 only: blind to handedness
        assert decay_rate(minus, z, COND) == pytest.approx(
            decay_rate(TR, z, COND), rel=1e-15)


def test_numeric_route_agrees_with_closed_route():
    # the rate is Im s: the k-quadrature of a mirror against its closed form
    z = np.array([0.4, 1.0, 6.0])
    for medium in (COND, MIR):
        closed = greens_grid(medium, z, 1.0).sandwich(TR.dipole).imag
        numeric = numeric_greens(z, 1.0, medium).sandwich(TR.dipole).imag
        assert np.all(abs(numeric / closed - 1) < 1e-6)


def test_greens_tensor_routes_by_medium():
    # a medium with a constant reflection matrix takes the closed form (the
    # ideal mirrors, the constant test medium, the axion half-space at
    # epsilon = 1), every other medium the k-quadrature; there is no switch
    # between them
    for medium in (COND, MIR, ConstantReflectionMedium(r_ss=0.3, r_sp=-0.2j),
                   AxionMedium(theta=math.pi), AxionMedium(epsilon=1.0, theta=-math.pi)):
        assert greens_tensor(medium, 1.0, 1.0).neval == 0
        assert nonresonant_shift_terms(TR, 1.0, medium).neval == 0
    m16 = AxionMedium(epsilon=16.0, theta=math.pi)
    assert greens_tensor(m16, 1.0, 1.0).neval > 0
    assert nonresonant_shift_terms(TR, 1.0, m16).neval > 0
    with pytest.raises(TypeError, match="method"):
        greens_tensor(COND, 1.0, 1.0, method="numeric")
    with pytest.raises(TypeError, match="method"):
        nonresonant_shift_terms(TR, 1.0, COND, method="numeric")
    # both routes take the real or the imaginary axis only, and both reject
    # omega = 0 and non-finite omega
    for medium in (COND, m16):
        with pytest.raises(ValueError, match="omega"):
            greens_tensor(medium, 1.0, 1.0 + 0.5j)
    for medium in (COND, AxionMedium(epsilon=1.0), m16):
        for omega in (0.0, math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="omega"):
                greens_tensor(medium, 1.0, omega)


def test_greens_grid_rows_are_the_point_tensors():
    # greens_tensor is the one-height case of the router: same bits, as
    # Python scalars with an int neval; closed forms report no quadrature
    z = np.array([0.3, 1.0, 2.5])
    xi = np.array([0.4, 1.0, 3.0])
    axion = AxionMedium(epsilon=16.0, theta=math.pi)
    for medium, omega in ((COND, 1.0), (MIR, 1.0), (axion, 1.0),
                          (COND, 1j * xi), (MIR_P, 1j * xi)):
        g = greens_grid(medium, z, omega)
        for j, zj in enumerate(z):
            one = greens_tensor(medium, float(zj), np.broadcast_to(omega, z.shape)[j])
            assert one == g.point(j)
            assert type(one.neval) is int and type(one.quad_error) is float
        assert np.all((g.neval > 0) == (medium is axion))
        assert np.all((g.quad_error > 0) == (medium is axion))
    numeric = numeric_greens(z, 1j * xi, COND)
    assert np.all(numeric.neval > 0)
    assert np.allclose(numeric.xx, greens_grid(COND, z, 1j * xi).xx, rtol=1e-6, atol=0)


def test_zero_heights_give_empty_results():
    # the quadrature routes return empty arrays like the closed forms do
    axion = AxionMedium(epsilon=16.0, theta=math.pi)
    for medium in (axion, COND):
        g = greens_grid(medium, [], 1.0)
        assert g.xx.shape == g.neval.shape == (0,)
        terms = nonresonant_shift_grid(TR, [], medium)
        assert terms.im_term.shape == terms.re_term.shape == terms.neval.shape == (0,)


# ---------------------------------------------------------------------------
# nonresonant shift: independent single-integral oracles

def _cond_nres_oracle(z):
    # conductor sandwich on the rotated contour reduces to one xi integral
    d2 = TR.dipole_squared
    val, _ = quad(lambda x: x ** 2 / (x ** 2 + 1)
                  * (1 / z + 1 / (2 * x * z ** 2) + 1 / (4 * x ** 2 * z ** 3))
                  * np.exp(-2 * x * z), 0, np.inf, limit=200)
    return d2 / (8 * np.pi ** 2) * val


def _mir_nres_oracle(z):
    d2 = TR.dipole_squared
    val, _ = quad(lambda x: x ** 3 / (x ** 2 + 1)
                  * (1 / z + 1 / (2 * x * z ** 2))
                  * np.exp(-2 * x * z), 0, np.inf, limit=200)
    return d2 / (8 * np.pi ** 2) * val


def test_conductor_nonresonant_dual_route():
    for z in (0.5, 2.0, 30.0):
        terms = nonresonant_shift_terms(TR, z, COND)
        assert terms.im_term == 0.0          # reciprocal medium: no Im channel
        assert terms.total == pytest.approx(_cond_nres_oracle(z), rel=1e-8)


def test_mirror_nonresonant_dual_route():
    for z in (0.5, 2.0, 30.0):
        terms = nonresonant_shift_terms(TR, z, MIR)
        assert terms.re_term == 0.0          # conversion mirror: no Re channel
        assert terms.total == pytest.approx(_mir_nres_oracle(z), rel=1e-8)


def test_mirror_plus_sign_flips_nonresonant_shift():
    z = 1.2
    assert nonresonant_shift(TR, z, MIR_P) == pytest.approx(
        -nonresonant_shift(TR, z, MIR), rel=1e-12)


@mpmath.workdps(25)
def _mp_nres(medium, z):
    """mpmath value of the mirrors' xi-integrals above, to 25 digits."""
    z = mpmath.mpf(z)
    if medium is COND:
        def f(x):
            return (x ** 2 / (x ** 2 + 1) * (1 / z + 1 / (2 * x * z ** 2)
                                            + 1 / (4 * x ** 2 * z ** 3))
                    * mpmath.exp(-2 * x * z))
    else:
        def f(x):
            return x ** 3 / (x ** 2 + 1) * (1 / z + 1 / (2 * x * z ** 2)) * mpmath.exp(-2 * x * z)
    points = [0] + sorted({mpmath.mpf(1), 1 / (2 * z), 10 / z}) + [mpmath.inf]
    return float(TR.dipole_squared / (8 * mpmath.pi ** 2) * mpmath.quad(f, points))


PURE = AxionMedium(epsilon=1.0, theta=math.pi)


def _mp_nres_any(medium, z):
    """_mp_nres, and for the pure axion its conductor and mirror channels:
    r_ss = -r_pp = -D^2/(4+D^2) and r_sp = r_ps = -2D/(4+D^2) are those of
    COND times D^2/(4+D^2) plus those of MIR times 2D/(4+D^2)."""
    if medium is not PURE:
        return _mp_nres(medium, z)
    d = PURE.delta
    return (d * d * _mp_nres(COND, z) + 2 * d * _mp_nres(MIR, z)) / (4 + d * d)


@pytest.mark.parametrize("medium", [COND, MIR, PURE],
                         ids=["conductor", "mirror", "pure_axion"])
def test_mirror_nonresonant_shift_against_mpmath(medium):
    # out to the ends of acceptance criterion 3, where the s-integrand is
    # widest (zeta = 1e-3) and B3/B4 are deepest in their cancelling range;
    # the worst relative error seen is 3e-15
    for z in (1e-3, 0.01, 1.0, 30.0, 100.0):
        terms = nonresonant_shift_terms(TR, z, medium)
        assert terms.neval == 0 and terms.quad_error == 0.0
        assert terms.total == pytest.approx(_mp_nres_any(medium, z), rel=1e-12)


class _Opaque:
    """The same reflection, with no constant matrix stated: the s-integral
    runs for it."""

    def __init__(self, medium):
        self.medium = medium

    def reflection(self, omega, k_perp):
        return self.medium.reflection(omega, k_perp)


@pytest.mark.parametrize("medium", [
    COND, MIR, MIR_P, PURE, AxionMedium(epsilon=1.0, theta=-math.pi),
    ConstantReflectionMedium(r_ss=0.3 + 0.1j, r_sp=-0.2j, r_ps=0.4, r_pp=0.7 - 0.3j)])
def test_closed_form_nonresonant_shift_matches_the_s_integral(medium):
    # the s-integral at its default tolerance is the reference; the worst
    # difference seen is 4e-15 of the larger term.  Both read the dipole's
    # three weights (greens._dipole_weights), the s-integrand at every node
    # and the closed form in P(1), P'(1) and P''(1): a dipole with every
    # component complex checks that both weigh the same kernels alike
    z = np.geomspace(1e-3, 100.0, 25)
    general = Transition(np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j]), 1.3)
    for tr in (TR, general):
        closed = nonresonant_shift_grid(tr, z, medium)
        reference = nonresonant_shift_grid(tr, z, _Opaque(medium))
        assert closed.neval.sum() == 0 and np.all(reference.neval > 0)
        assert np.all(closed.quad_error == 0.0)
        scale = np.maximum(np.abs(reference.im_term), np.abs(reference.re_term))
        assert np.all(np.abs(closed.im_term - reference.im_term) <= 1e-12 * scale)
        assert np.all(np.abs(closed.re_term - reference.re_term) <= 1e-12 * scale)


def _nested_nres(z, medium, config=None):
    """(im_term, re_term) from the xi-integral over u in (0, 50],
    xi = u/2z, of the k-quadrature tensor numeric_greens(z, i xi): the
    nested route that the s-integral replaced."""
    w = TR.frequency
    scale = 1.0 / (2.0 * z)

    def f(u):
        xi = scale * u
        s = numeric_greens(np.full(u.size, z), 1j * xi, medium,
                           config).sandwich(TR.dipole)
        return (xi ** 3 * s.imag + 1j * (xi ** 2 * w * s.real)) / (xi ** 2 + w ** 2)

    value = integrate(f, 0.0, 50.0, rel_tol=1e-8).value
    pref = scale / math.pi
    return pref * value.real, -pref * value.imag


@given(epsilon=st.floats(1.0, 30.0), theta=st.floats(-2 * math.pi, 2 * math.pi),
       zeta=st.floats(0.01, 10.0))
@settings(max_examples=12, deadline=None)
def test_s_integral_matches_nested_xi_k_route(epsilon, theta, zeta):
    # through _Opaque, so that epsilon = 1 runs the s-integral too and not
    # the closed form
    medium = AxionMedium(epsilon=epsilon, theta=theta)
    terms = nonresonant_shift_terms(TR, zeta, _Opaque(medium))
    im_ref, re_ref = _nested_nres(zeta, medium)
    scale = max(abs(im_ref), abs(re_ref))
    assert abs(terms.im_term - im_ref) <= 1e-8 * scale
    assert abs(terms.re_term - re_ref) <= 1e-8 * scale


def test_s_integral_converges_next_to_epsilon_one():
    # the Fresnel numerators carry no cancellation, so a half-space one ulp
    # off epsilon = 1 reflects (eps - 1) times a smooth function of s: the
    # s-integral converges (its rounding noise exhausted the panel budget
    # while k1 - k2 was a difference of two square roots), the reciprocal
    # medium has no Im channel, and the shift is linear in eps - 1
    terms = [nonresonant_shift_terms(TR, 1.0, AxionMedium(epsilon=1.0 + k * 2.0 ** -52,
                                                           theta=0.0))
             for k in (1, 2, 4)]
    assert all(t.im_term == 0.0 and t.neval > 0 for t in terms)
    assert terms[1].re_term == pytest.approx(2.0 * terms[0].re_term, rel=1e-9)
    assert terms[2].re_term == pytest.approx(4.0 * terms[0].re_term, rel=1e-9)


def test_theta_at_its_bound_evaluates_as_the_conductor():
    # |Delta| = 2.3e97 at |theta| = 1e100: r_ss -> -1, r_pp -> 1 and
    # r_sp -> 0 at every epsilon, and nothing overflows on the way
    from cpshift.media import _THETA_MAX
    for theta in (_THETA_MAX, -_THETA_MAX):
        for eps in (1e-100, 16.0, 1e100):
            medium = AxionMedium(epsilon=eps, theta=theta)
            for z in (1e-3, 1.0, 100.0):
                for fn in (decay_rate, resonant_shift, nonresonant_shift):
                    value, conductor = fn(TR, z, medium), fn(TR, z, COND)
                    assert math.isfinite(value), (theta, eps, z, fn.__name__)
                    if z >= 1.0:
                        assert value == pytest.approx(conductor, rel=1e-15), \
                            (theta, eps, z, fn.__name__)
    with pytest.raises(ValueError, match="theta"):
        AxionMedium(theta=np.nextafter(_THETA_MAX, math.inf))


def test_xi_moments_against_mpmath():
    # B0 = f(b), B1 = g(b), B2 = 1/b - f, B3 = 1/b^2 - g(b) and
    # B4 = 2/b^3 - 1/b + f(b), with the sine/cosine auxiliary functions f
    # and g, at 60 digits, which absorb the cancellation: on both sides of
    # the switch at b = 2 and far into the range where double precision
    # would lose every digit; below the switch, where Si and Ci come from
    # their power series, densely and up to its last representable points
    b = np.concatenate([np.geomspace(1e-3, 1e7, 41), [2.0 - 1e-12, 2.0, 2.0 + 1e-12],
                        np.geomspace(1e-6, 2.0, 201)[:-1],
                        2.0 - np.geomspace(1e-14, 1e-2, 25)])
    moments, upper = _moments(b), _moments(b, lower=False)
    for j, x in enumerate(b):
        with mpmath.workdps(60):
            x_mp = mpmath.mpf(float(x))
            si = mpmath.si(x_mp) - mpmath.pi / 2
            ci = mpmath.ci(x_mp)
            f = ci * mpmath.sin(x_mp) - si * mpmath.cos(x_mp)
            g = -ci * mpmath.cos(x_mp) - si * mpmath.sin(x_mp)
            refs = [float(f), float(g), float(1 / x_mp - f), float(1 / x_mp ** 2 - g),
                    float(2 / x_mp ** 3 - 1 / x_mp + f)]
        for n, ref in enumerate(refs):
            assert abs(moments[n, j] / ref - 1) <= 4e-15, (n, x)
        # the s-integral's B3 and B4 alone, from the table down to b = 2^-9
        for n, ref in enumerate(refs[3:]):
            assert abs(upper[n, j] / ref - 1) <= 4e-15, (n + 3, x)
    # and the same bits where both read the same branch: the series below
    # 2^-9, the table from 2 and the asymptotic series from 2^20
    same = (b < 2.0 ** -9) | (b >= 2.0)
    assert np.array_equal(upper[:, same], moments[3:, same])
    far = np.geomspace(2.0 ** 20, 1e30, 5)
    assert np.array_equal(_moments(far, lower=False), _moments(far)[3:])


def test_moments_below_two_build_no_table():
    # the table of the b >= 2 branch costs tens of milliseconds to build;
    # a batch below b = 2 never reads it, and its values are those the
    # same points get inside a batch that does
    b = np.geomspace(1e-6, 2.0, 50)[:-1]
    with_table = _moments(np.append(b, 3.0))[:, :-1]
    _moment_table.cache_clear()
    assert np.array_equal(_moments(b), with_table)
    assert _moment_table.cache_info().currsize == 0


def _one_shot_columns(b):
    """B3 ... B9 at ascending b, each side of b = 2 in one batch: the
    continued fraction from b = 2 up, the series and the upward recurrence
    below."""
    low, up = b[b < 2.0], b[b >= 2.0]
    m = np.arange(3.0, 10.0)[:, None]
    depth = np.ceil(6.0 + 250.0 / up).astype(int)
    t = np.zeros((m.size, up.size), dtype=complex)
    for k in range(depth[0], 0, -1):
        n = np.count_nonzero(depth >= k)
        t[:, :n] = -k * (m + k) / (m + 1 + 2 * k - 1j * up[:n] + t[:, :n])
    m_factorial = np.cumprod(np.arange(1.0, 10.0))[2:, None]
    upper = m_factorial * (1.0 / (m + 1 - 1j * up + t)).imag / up ** m
    rows = _series(low, lower=False)
    for n in range(3, 8):
        rows.append(math.factorial(n) / low ** (n + 1) - rows[n - 3])
    return np.concatenate([np.array(rows), upper], axis=1)


def test_moment_table_columns_equal_their_one_shot_formulas():
    # the table is built a block of columns at a time; each column holds
    # the bits of the formulas applied to it alone: the first and last
    # columns, both sides of the seam at b = 2 and of a block boundary on
    # each side of it
    grid, table = _moment_table()
    cols = np.array([0, 1, _BLOCK - 1, _BLOCK, _BELOW - 1, _BELOW, _BELOW + 1,
                     _BELOW + _BLOCK - 1, _BELOW + _BLOCK, grid.size - 1])
    assert grid[_BELOW - 1] < 2.0 == grid[_BELOW] and table.shape == (7, grid.size)
    assert _one_shot_columns(grid[cols]).tobytes() == table[:, cols].tobytes()


def test_moment_table_builds_in_a_small_peak():
    # the table itself is 1.26 MiB; building it whole took 4.7 MiB
    tracemalloc.start()
    try:
        _moment_table.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.filterwarnings("error")
def test_far_field_nonresonant_shift_keeps_its_power_law():
    # from b = 2^20 on the moments come from 1/b: b^5 overflowed from
    # zeta ~ 1e60 (conductor at 1e62, the s-integral's deep nodes at eps = 16
    # from 1e60).  The mirror's z^-5 shift is below the smallest normal
    # double beyond zeta ~ 1e61, so it is held there.
    for medium, power, far in ((COND, 4, 1e70), (AxionMedium(epsilon=16.0), 4, 1e70),
                               (MIR, 5, 1e61)):
        near = nonresonant_shift(TR, 1e40, medium) * 1e40 ** power
        assert nonresonant_shift(TR, far, medium) * far ** power == pytest.approx(
            near, rel=1e-12), medium


@pytest.mark.filterwarnings("error")
def test_closed_form_nonresonant_shift_does_not_overflow():
    # a^3 overflows from zeta ~ 3e102, where its term is below the smallest
    # double anyway: no warning, and the shift rounds to 0 at zeta = 1e150
    for medium in (COND, MIR):
        assert nonresonant_shift(TR, 1e150, medium) == 0.0
    near = nonresonant_shift(TR, 1e20, COND) * 1e20 ** 4
    for zeta in (1e40, 1e60):
        assert nonresonant_shift(TR, zeta, COND) * zeta ** 4 == pytest.approx(
            near, rel=1e-12)


def test_tight_s_integral_converges_from_contact_to_far_field():
    # B3/B4 are smooth to round-off, so a tolerance near 1e-11 converges
    # everywhere instead of stalling on a step between their two branches
    z = np.geomspace(1e-3, 100.0, 40)
    cfg = QuadratureConfig().tighter(1e-3)
    for medium in (COND, MIR, AxionMedium(epsilon=16.0, theta=math.pi),
                   AxionMedium(epsilon=1.0, theta=-math.pi)):
        tight = nonresonant_shift_grid(TR, z, medium, config=cfg)
        default = nonresonant_shift_grid(TR, z, medium)
        assert np.all(np.abs(tight.total - default.total) <= 1e-12 * np.abs(tight.total))


def test_nonresonant_grid_under_a_small_panel_budget_matches_point_calls():
    # the four heights share the 4-level start ladder (2 w z >= 2^-1/2), and
    # above eps = 0.25 each splits one of its 5 start panels; a budget of
    # 11 panels holds the s-integral of any one of them but not two, so
    # heights are evicted and restarted, which costs reflection nodes; each
    # still equals its one-height call at the default budget, bit for bit.
    # (Above eps = 16 every height converges on its start ladder, and no
    # owner that does not split is ever evicted.)
    class Counted(AxionMedium):
        nodes = 0

        def reflection(self, omega, k_perp):
            Counted.nodes += np.size(k_perp)
            return super().reflection(omega, k_perp)

    z = np.array([0.5, 1.1, 2.0, 5.0])
    m025 = Counted(epsilon=0.25, theta=math.pi)
    nonresonant_shift_grid(TR, z, m025)
    unbounded, Counted.nodes = Counted.nodes, 0
    grid = nonresonant_shift_grid(TR, z, m025, config=QuadratureConfig(max_panels=11))
    assert Counted.nodes > unbounded
    assert grid.neval.sum() > 12 * 15
    for j, zj in enumerate(z):
        one = nonresonant_shift_terms(TR, float(zj), m025)
        assert (grid.im_term[j], grid.re_term[j]) == (one.im_term, one.re_term)
        assert (grid.quad_error[j], grid.neval[j]) == (one.quad_error, one.neval)


def _count_calls(monkeypatch):
    """A list that records the `levels` of every integrate_batch call the
    s-integral makes."""
    import cpshift.atomics

    calls, integrate_batch = [], cpshift.atomics.integrate_batch

    def counted(f, levels, **kwargs):
        calls.append(levels)
        return integrate_batch(f, levels, **kwargs)

    monkeypatch.setattr(cpshift.atomics, "integrate_batch", counted)
    return calls


def test_nonresonant_grid_over_many_start_ladders_matches_point_calls(monkeypatch):
    # zeta = 1e-4 ... 20 start on ladders of 4 to 17 levels, each height an
    # owner of one integrate_batch call; each height still equals its
    # one-height call bit for bit
    z = np.geomspace(1e-4, 20.0, 12)
    levels = np.clip(4 - np.rint(np.log2(2.0 * z)), 4, None)
    assert np.unique(levels).size >= 4
    m16 = AxionMedium(epsilon=16.0, theta=math.pi)
    calls = _count_calls(monkeypatch)
    grid = nonresonant_shift_grid(TR, z, m16)
    assert len(calls) == 1 and calls[0].tolist() == levels.tolist()
    for j, zj in enumerate(z):
        one = nonresonant_shift_terms(TR, float(zj), m16)
        assert (grid.im_term[j], grid.re_term[j]) == (one.im_term, one.re_term)
        assert (grid.quad_error[j], grid.neval[j]) == (one.quad_error, one.neval)


def test_a_pole_on_a_deeper_ladder_names_its_height():
    # zeta = 1e-3 alone starts on the 13-level ladder, whose panel
    # [2^-13, 2^-12] no other height's ladder has: a stand-in pole at its
    # middle node fails the call, and its owner is height 3
    tau = 1.5 * 2.0 ** -13
    reflection = AxionMedium.reflection

    class PoleAtTau(AxionMedium):
        def reflection(self, omega, k_perp):
            hit = np.flatnonzero(np.abs(np.abs(k_perp) * tau - 1.0) < 1e-12)
            if hit.size:
                raise PoleError("stand-in pole", owner=int(hit[0]))
            return reflection(self, omega, k_perp)

    zetas = np.array([2.0, 0.05, 0.5, 1e-3])
    medium = PoleAtTau(epsilon=16.0, theta=math.pi)
    with pytest.raises(PoleError) as excinfo:
        nonresonant_shift_grid(TR, zetas / TR.frequency, medium)
    assert excinfo.value.owner == 3
    with pytest.raises(ScanError) as excinfo:
        _scan_values(zetas, medium, (TR,), ("nonresonant_shift",), QuadratureConfig())
    assert excinfo.value.zeta == 1e-3


def test_nonresonant_evaluation_count_on_the_benchmark_pool(monkeypatch):
    # evaluation counts do not depend on the machine, so they pin the
    # engine's panel decisions: the benchmark's 64 log-spaced zeta in
    # [0.01, 10] take 6,330 in one integrate_batch call from start ladders
    # that reach 2 w z (8,640 from the 4-level ladder alone, 10,980 from
    # [0, 1]), and single heights the README's counts, each converging in
    # its start round: one reflection call
    class Counted(AxionMedium):
        calls = 0

        def reflection(self, omega, k_perp):
            Counted.calls += 1
            return super().reflection(omega, k_perp)

    medium = Counted(epsilon=16.0, theta=math.pi)
    zeta = 10.0 ** (-2.0 + 3.0 * (np.arange(64) + 0.5) / 64)
    calls = _count_calls(monkeypatch)
    terms = nonresonant_shift_grid(TR, zeta / TR.frequency, medium)
    assert terms.neval.sum() == 6_330
    assert len(calls) == 1 and np.unique(calls[0]).size > 1
    counts = {1e-3: 210, 0.01: 165, 0.1: 105, 0.5: 75, 1.0: 75, 10.0: 75}
    for zeta, neval in counts.items():
        Counted.calls = 0
        assert nonresonant_shift_terms(TR, zeta / TR.frequency, medium).neval == neval
        assert Counted.calls == 1, zeta
    grid = nonresonant_shift_grid(TR, np.array(list(counts)) / TR.frequency, medium)
    assert grid.neval.tolist() == list(counts.values())


def test_real_axis_tensor_fails_below_its_depth_cap_at_its_height():
    # above a dielectric the rate and the resonant shift come from the
    # k-quadrature on the real axis, whose panels stop splitting at the
    # depth cap: from about zeta = 1.07e-16 down (at every epsilon) the
    # integral fails at the height, as QuadratureError with owner 0
    for eps in (0.25, 16.0):
        medium = AxionMedium(epsilon=eps, theta=math.pi)
        for fn in (decay_rate, resonant_shift):
            assert math.isfinite(fn(TR, 1e-15 / TR.frequency, medium))
            with pytest.raises(QuadratureError, match="exceeded 30 levels") as excinfo:
                fn(TR, 1e-17 / TR.frequency, medium)
            assert excinfo.value.owner == 0, (eps, fn.__name__)


def test_nonresonant_shift_near_contact_holds_its_law_or_names_the_height():
    # the start ladder deepens with the height, to at most 1022 levels: to
    # zeta = 1e-50, zeta^3 dw_nres holds its contact value, and where the
    # integrand overflows, or its ladder would pass the smallest normal
    # double, the call fails at the height
    m16 = AxionMedium(epsilon=16.0, theta=math.pi)
    ref = 1e-16 ** 3 * nonresonant_shift(TR, 1e-16, m16)
    for zeta in (1e-20, 1e-30, 1e-50):
        got = zeta ** 3 * nonresonant_shift(TR, zeta / TR.frequency, m16)
        assert abs(got - ref) <= 1e-12 * abs(ref), zeta
    for zeta in (1e-100, 5e-324):
        with pytest.raises(QuadratureError) as excinfo:
            nonresonant_shift_grid(TR, [1.0, zeta / TR.frequency], m16)
        assert excinfo.value.owner == 1, zeta


def test_a_non_finite_quantity_raises_at_its_height():
    # the conductor's closed forms overflow this close: each entry point
    # raises QuadratureError with the first such height as its owner, and
    # no numpy RuntimeWarning escapes (the suite turns warnings into errors)
    for quantity, zeta in ((nonresonant_shift, 1e-103), (decay_rate, 1e-104),
                           (resonant_shift, 1e-104)):
        with pytest.raises(QuadratureError) as excinfo:
            quantity(TR, zeta, COND)
        assert excinfo.value.owner == 0, quantity
    with pytest.raises(QuadratureError) as excinfo:
        nonresonant_shift_grid(TR, [1.0, 0.1, 1e-103, 1e-110], COND)
    assert excinfo.value.owner == 2
    with np.errstate(all="ignore"):
        g = greens_grid(COND, [1.0, 1e-104, 1e-110], 1.0)
    with pytest.raises(QuadratureError) as excinfo:
        _tensor_quantities(g, TR)
    assert excinfo.value.owner == 1
    # at w = 100 the closed form's terms reach 1e308 near contact: at zeta =
    # 7.5e-104 both are finite and positive, and their sum, the shift, is not
    tr, zeta = Transition(TR.dipole, 100.0), 7.5e-104
    medium = ConstantReflectionMedium(r_sp=-1.5, r_pp=1.0)
    pref = 100.0 ** 3 / (8 * math.pi ** 2)
    im, re = _closed_form_nonresonant(medium.constant_reflection, tr.dipole,
                                      np.array([2 * 100.0 * zeta]))
    terms = pref * im[0], -pref * re[0]
    assert np.all(np.isfinite(terms)) and min(terms) > 1e308
    with pytest.raises(QuadratureError) as excinfo:
        nonresonant_shift(tr, zeta, medium)
    assert excinfo.value.owner == 0
    with pytest.raises(QuadratureError) as excinfo:
        nonresonant_shift_grid(tr, [1.0, 1e-103, zeta], medium)
    assert excinfo.value.owner == 2


def test_s_integral_holds_its_tight_run_on_log_heights():
    # the start ladder deepens with the height below 2 w z = 2^-1/2: both
    # terms hold a 1000 times tighter run, each to 1e-13 of itself, from
    # zeta = 1e-3 to 1e3 (worst seen 3.3e-15, the im_term at eps = 0.25)
    z = np.geomspace(1e-3, 1e3, 121)
    tight = QuadratureConfig().tighter(1e-3)
    for epsilon in (0.25, 4.0, 16.0):
        medium = AxionMedium(epsilon=epsilon, theta=math.pi)
        default = nonresonant_shift_grid(TR, z, medium)
        ref = nonresonant_shift_grid(TR, z, medium, config=tight)
        for name in ("im_term", "re_term"):
            got, want = getattr(default, name), getattr(ref, name)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (epsilon, name)


def test_batched_failures_name_the_height():
    # a stand-in pole at one frequency of an imaginary-axis batch: every
    # height reaches every k_par, so only omega = 0.3i tells the points apart
    class PoleMedium(PerfectConductor):
        def reflection(self, omega, k_perp):
            hit = np.flatnonzero(np.broadcast_to(omega, np.shape(k_perp)) == 0.3j)
            if hit.size:
                raise PoleError("stand-in pole", owner=int(hit[0]))
            return super().reflection(omega, k_perp)

    z = np.array([2.0, 1.0, 0.1, 0.05])
    with pytest.raises(PoleError) as excinfo:
        numeric_greens(z, 1j * np.array([0.1, 0.2, 0.3, 0.4]), PoleMedium())
    assert excinfo.value.owner == 2
    # P(s) is the same for every height, but the s-integrand falls off below
    # tau ~ 2 w z, so each height starts on a ladder of max(4, 4 - round(
    # log2 2 w z)) levels.  Under a budget of 5 panels, the 4-level ladder,
    # only z = 1e-3, whose 13-level ladder does not fit, fails
    z = np.array([2.0, 1.0, 1e-3, 0.5])
    capped = QuadratureConfig(max_panels=5)
    m16 = AxionMedium(epsilon=16.0, theta=math.pi)
    nonresonant_shift_grid(TR, z[[0, 1, 3]], m16, config=capped)
    with pytest.raises(QuadratureError) as excinfo:
        nonresonant_shift_grid(TR, z, m16, config=capped)
    assert excinfo.value.owner == 2


_SCIPY_FREE_RUN = r"""
import math, sys, tempfile
from pathlib import Path
if sys.argv[1] == "blocked":
    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
    sys.meta_path.insert(0, NoScipy())
    try:
        import scipy
    except ImportError:
        pass
    else:
        raise SystemExit("scipy was not blocked")
import cpshift
from cpshift import atomics, cli
from cpshift.atomics import evolve_populations, nonresonant_shift
from cpshift.media import AxionMedium, PerfectConductor, PerfectNonreciprocalMirror
from cpshift.units import AtomModel, canonical_transition
assert atomics._moment_table.cache_info().currsize == 0  # no table built at import
tr = canonical_transition()
for medium in (PerfectConductor(), PerfectNonreciprocalMirror(),
               AxionMedium(epsilon=16.0, theta=math.pi)):
    print(repr(nonresonant_shift(tr, 0.4, medium)))
atom = AtomModel((0.0, 1.0, 2.5), {(1, 0): [1.0, 0.0, 0.0], (2, 1): [1.0, 0.0, 0.0],
                                   (2, 0): [1.0, 0.0, 0.0]})
print(evolve_populations(atom, {(2, 1): 1.0, (1, 0): 0.5, (2, 0): 0.25},
                         [0.0, 0.5, 3.0]).tolist())
assert cli.main(["rates", "--medium", "axion", "--zeta", "0.7"]) == 0
assert cli.main(["shift", "--medium", "perfect_conductor", "--zeta", "0.5"]) == 0
with tempfile.TemporaryDirectory() as out:
    cfg = Path(out) / "scan.cfg"
    cfg.write_text("medium = axion\nepsilon = 16\ntheta = 1.0pi\nzeta_min = 0.3\n"
                   "zeta_max = 2.0\ncount = 3\nname = window\n"
                   "quantities = rate, resonant_shift, nonresonant_shift\n")
    assert cli.main(["scan", "--config", str(cfg), "--out", out]) == 0
    print((Path(out) / "window.csv").read_text(), end="")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_runs_with_scipy_blocked():
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, the library, the population solver and the CLI give the same
    # numbers as a run that could import it, and neither run loads scipy
    src = str(Path(cpshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = {mode: subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, mode],
                                capture_output=True, text=True, env=env)
           for mode in ("blocked", "open")}
    for run in out.values():
        assert run.returncode == 0, run.stderr
    assert out["blocked"].stdout == out["open"].stdout
    assert out["blocked"].stdout.splitlines()[-1] == "[]"
    assert len(out["blocked"].stdout.splitlines()) == 13


def test_reciprocal_medium_im_term_vanishes():
    terms = nonresonant_shift_terms(TR, 0.8, AxionMedium(epsilon=16.0, theta=0.0))
    assert terms.im_term == 0.0
    assert terms.re_term != 0.0


def test_contact_limits():
    # conductor rate -> -Gamma0, conversion-mirror rate -> 0 (like -zeta)
    assert decay_rate(TR, 1e-2, COND) == pytest.approx(-1.0, abs=1e-3)
    assert decay_rate(TR, 1e-2, MIR) == pytest.approx(-1e-2, rel=1e-3)


def test_total_shift_breakdown():
    bd = total_shift(TR, 1.5, MIR)
    assert bd.total == bd.resonant + bd.nonresonant
    assert bd.resonant == pytest.approx(resonant_shift(TR, 1.5, MIR), rel=1e-12)


# ---------------------------------------------------------------------------
# asymptotic catalog

def test_asymptotic_retarded_expressions():
    z = 3.7
    assert asymptotic(AsymptoticCase("retarded", COND, "rate"), TR, z) == \
        pytest.approx(-0.75 * math.sin(2 * z) / z, rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", COND, "resonant_shift"), TR, z) == \
        pytest.approx(0.375 * math.cos(2 * z) / z, rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", MIR, "rate"), TR, z) == \
        pytest.approx(0.75 * math.cos(2 * z) / z, rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", MIR, "resonant_shift"), TR, z) == \
        pytest.approx(0.375 * math.sin(2 * z) / z, rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", COND, "nonresonant_shift"), TR, z) == \
        pytest.approx(3.0 / (16 * math.pi * z ** 4), rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", MIR, "nonresonant_shift"), TR, z) == \
        pytest.approx(3.0 / (16 * math.pi * z ** 5), rel=1e-14)


def test_asymptotic_nonretarded_expressions():
    z = 0.02
    assert asymptotic(AsymptoticCase("nonretarded", COND, "rate"), TR, z) == \
        pytest.approx(-1.0, rel=1e-12)
    assert asymptotic(AsymptoticCase("nonretarded", MIR, "rate"), TR, z) == 0.0
    assert asymptotic(AsymptoticCase("nonretarded", MIR, "resonant_shift"), TR, z) == \
        pytest.approx(3.0 / (16 * z ** 2), rel=1e-14)
    assert asymptotic(AsymptoticCase("nonretarded", COND, "resonant_shift"), TR, z) == \
        pytest.approx(-3.0 / (32 * z ** 3), rel=1e-14)
    assert asymptotic(AsymptoticCase("nonretarded", COND, "nonresonant_shift"), TR, z) == \
        pytest.approx(3.0 / (64 * z ** 3), rel=1e-14)
    assert asymptotic(AsymptoticCase("nonretarded", MIR, "nonresonant_shift"), TR, z) == \
        pytest.approx(3.0 / (16 * math.pi * z ** 3), rel=1e-14)


def test_asymptotic_pure_axion_expressions():
    # the pure-axion laws carry the leading Delta/2 cross coefficient
    m = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    dlt = m.delta
    z = 0.05
    assert asymptotic(AsymptoticCase("nonretarded", m, "rate"), TR, z) == \
        pytest.approx(-3.0 * dlt / (16 * z ** 2), rel=1e-14)
    assert asymptotic(AsymptoticCase("nonretarded", m, "resonant_shift"), TR, z) == \
        pytest.approx(3.0 * dlt / (32 * z ** 2), rel=1e-14)
    assert asymptotic(AsymptoticCase("nonretarded", m, "nonresonant_shift"), TR, z) == \
        pytest.approx(3.0 * dlt / (32 * math.pi * z ** 3), rel=1e-14)
    z = 4.0
    assert asymptotic(AsymptoticCase("retarded", m, "rate"), TR, z) == \
        pytest.approx(0.375 * dlt * math.cos(2 * z) / z, rel=1e-14)
    assert asymptotic(AsymptoticCase("retarded", m, "resonant_shift"), TR, z) == \
        pytest.approx(0.1875 * dlt * math.sin(2 * z) / z, rel=1e-14)


def test_asymptotic_unsupported_cases():
    # the error names the regime and the medium
    m16 = AxionMedium(epsilon=16.0, theta=math.pi)
    with pytest.raises(ValueError, match="no retarded nonresonant law for AxionMedium"):
        asymptotic(AsymptoticCase("retarded", m16, "nonresonant_shift"), TR, 5.0)
    with pytest.raises(ValueError, match="no nonretarded nonresonant law for AxionMedium"):
        asymptotic(AsymptoticCase("nonretarded", m16, "nonresonant_shift"), TR, 0.01)
    # a medium that states a constant reflection has both nonresonant laws,
    # the leading moments of its closed form: r_sp = 0.5 alone weighs a
    # quarter of the nonreciprocal mirror's cross term, with its sign reversed
    half_sp = ConstantReflectionMedium(r_sp=0.5)
    law = asymptotic(AsymptoticCase("nonretarded", half_sp, "nonresonant_shift"), TR, 0.01)
    assert law == pytest.approx(-3.0 / (64 * math.pi * 0.01 ** 3), rel=1e-14)
    assert abs(nonresonant_shift(TR, 0.01, half_sp) / law - 1) < 0.02      # 0.984
    pure = AxionMedium(epsilon=1.0, theta=math.pi)
    with pytest.raises(ValueError, match="no retarded nonresonant law"):
        asymptotic(AsymptoticCase("retarded", pure, "nonresonant_shift"), TR, 5.0)
    with pytest.raises(ValueError):
        AsymptoticCase("midfield", COND, "rate")
    with pytest.raises(ValueError):
        AsymptoticCase("retarded", COND, "force")


def _next_order(regime, quantity, zeta, law, gamma0):
    """A bound on the first term an ideal mirror's limit law drops: 2/zeta^2
    of Gamma0 in the retarded rate and resonant shift (their 1/zeta laws
    oscillate through zero), 2 zeta of Gamma0 in the contact rate, and
    10/zeta^2 (retarded), 10 zeta^2 (resonant) or 5 zeta (nonresonant
    near contact) of a power law."""
    if quantity != "nonresonant_shift" and (regime == "retarded" or quantity == "rate"):
        return gamma0 * (2.0 / zeta ** 2 if regime == "retarded" else 2.0 * zeta)
    if regime == "retarded":
        return 10.0 / zeta ** 2 * abs(law)
    return (10.0 * zeta ** 2 if quantity == "resonant_shift" else 5.0 * zeta) * abs(law)


@pytest.mark.parametrize("dipole", [
    circular_dipole(1.0, "plus"), circular_dipole(1.0, "minus"), np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0]), np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j])],
    ids=["sigma+", "sigma-", "x", "z", "general"])
def test_asymptotic_laws_hold_for_any_dipole(dipole):
    # each law weighs r_pp and the cross coefficient with the dipole's
    # weights, so it holds the computed value to its next order for every
    # dipole; scaled by d . d* alone, the laws gave sigma- the sign of
    # sigma+, a z-dipole -Gamma0 at contact and a linear dipole a
    # nonreciprocal mirror's shift
    tr = Transition(dipole, 1.3)
    gamma0 = free_space_rate_formula(tr)
    computed = {"rate": decay_rate, "resonant_shift": resonant_shift,
                "nonresonant_shift": nonresonant_shift}
    for medium in (COND, MIR):
        for zeta in (200.3, 731.9, 1999.7, 1e-4):
            regime = "retarded" if zeta > 1.0 else "nonretarded"
            z = zeta / tr.frequency
            for quantity, value in computed.items():
                law = asymptotic(AsymptoticCase(regime, medium, quantity), tr, z)
                bound = _next_order(regime, quantity, zeta, law, gamma0)
                assert abs(value(tr, z, medium) - law) <= bound, (medium, zeta, quantity)


def _dropped_order(regime, quantity, zeta, gamma0):
    """The power of zeta a limit law drops, in units of Gamma0: 2/zeta^2
    in the retarded rate and resonant shift, 1/zeta^6 in the retarded
    nonresonant shift, 2 zeta in the contact rate, and 1/zeta (resonant) or
    1/zeta^2 (nonresonant) near contact.  An absolute bound, since the law
    of a medium can vanish where its value does not: r_ss alone has no
    zeta^-3 term in either shift near contact."""
    factor, power = {("retarded", "rate"): (2.0, -2),
                     ("retarded", "resonant_shift"): (2.0, -2),
                     ("retarded", "nonresonant_shift"): (1.0, -6),
                     ("nonretarded", "rate"): (2.0, 1),
                     ("nonretarded", "resonant_shift"): (1.0, -1),
                     ("nonretarded", "nonresonant_shift"): (1.0, -2)}[regime, quantity]
    return factor * gamma0 * zeta ** power


@pytest.mark.parametrize("dipole", [
    circular_dipole(1.0, "plus"), np.array([0.0, 0.0, 1.0]),
    np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j])], ids=["sigma+", "z", "general"])
def test_asymptotic_laws_hold_for_any_constant_reflection(dipole):
    # each law is the leading power of a closed form in P(1), P'(1), P''(1),
    # so it holds for coefficients with r_ss != -r_pp or r_sp != r_ps too;
    # the laws had weighed r_pp and r_sp alone, and refused the nonresonant
    # shift of every medium but the ideal mirrors
    tr = Transition(dipole, 1.3)
    gamma0 = free_space_rate_formula(tr)
    computed = {"rate": decay_rate, "resonant_shift": resonant_shift,
                "nonresonant_shift": nonresonant_shift}
    for medium in (ConstantReflectionMedium(r_ss=1.0), ConstantReflectionMedium(r_sp=1.0),
                   ConstantReflectionMedium(r_ps=1.0),
                   ConstantReflectionMedium(r_ss=0.3, r_sp=0.2, r_ps=-0.5, r_pp=-0.7)):
        for zeta in (300.3, 2999.7, 1e-4, 1e-5):
            regime = "retarded" if zeta > 1.0 else "nonretarded"
            z = zeta / tr.frequency
            for quantity, value in computed.items():
                law = asymptotic(AsymptoticCase(regime, medium, quantity), tr, z)
                bound = _dropped_order(regime, quantity, zeta, gamma0)
                assert abs(value(tr, z, medium) - law) <= bound, (medium, zeta, quantity)


def test_limit_laws_reject_heights_they_cannot_honour():
    # a negative or NaN height gave a number, z = 0 a ZeroDivisionError
    for z in (-3.0, 0.0, math.nan, math.inf):
        for regime in ("retarded", "nonretarded"):
            for qty in ("rate", "resonant_shift", "nonresonant_shift"):
                with pytest.raises(ValueError, match="height"):
                    asymptotic(AsymptoticCase(regime, COND, qty), TR, z)
        with pytest.raises(ValueError, match="height"):
            axion_difference("rate", "retarded", 16.0, math.pi, z, TR)


def test_numeric_approaches_retarded_laws():
    # evaluate at extrema of each leading oscillation near zeta = 30, where
    # the subleading 1/z^2 term is orthogonal in phase and the ratio is clean
    checks = [
        (COND, "rate", 39 * math.pi / 4),
        (COND, "resonant_shift", 19 * math.pi / 2),
        (MIR, "rate", 19 * math.pi / 2),
        (MIR, "resonant_shift", 39 * math.pi / 4),
    ]
    for medium, qty, z in checks:
        fn = decay_rate if qty == "rate" else resonant_shift
        ratio = fn(TR, z, medium) / asymptotic(
            AsymptoticCase("retarded", medium, qty), TR, z)
        assert abs(ratio - 1) < 0.02
    # phase-robust quantities directly at zeta = 30
    z = 30.0
    assert abs(resonant_shift(TR, z, COND) / asymptotic(
        AsymptoticCase("retarded", COND, "resonant_shift"), TR, z) - 1) < 0.02
    assert abs(decay_rate(TR, z, MIR) / asymptotic(
        AsymptoticCase("retarded", MIR, "rate"), TR, z) - 1) < 0.02
    for medium in (COND, MIR):
        assert abs(nonresonant_shift(TR, z, medium) / asymptotic(
            AsymptoticCase("retarded", medium, "nonresonant_shift"), TR, z) - 1) < 0.02


def test_numeric_approaches_nonretarded_laws():
    z = 0.01
    pure = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    checks = [
        (COND, "rate", decay_rate),
        (COND, "resonant_shift", resonant_shift),
        (MIR, "resonant_shift", resonant_shift),
        (COND, "nonresonant_shift", nonresonant_shift),
        (MIR, "nonresonant_shift", nonresonant_shift),
        (pure, "nonresonant_shift", nonresonant_shift),
    ]
    for medium, qty, fn in checks:
        ratio = fn(TR, z, medium) / asymptotic(
            AsymptoticCase("nonretarded", medium, qty), TR, z)
        assert abs(ratio - 1) < 0.02


# ---------------------------------------------------------------------------
# axion difference laws

def test_axion_difference_vanishes_without_coupling():
    for regime, qtys in (("retarded", ("rate", "resonant_shift")),
                         ("nonretarded", ("rate", "resonant_shift",
                                          "nonresonant_shift"))):
        for qty in qtys:
            assert axion_difference(qty, regime, 16.0, 0.0, 1.0, TR) == 0.0


def test_axion_difference_signs_and_errors():
    assert axion_difference("rate", "nonretarded", 16.0, math.pi, 0.01, TR) < 0
    assert axion_difference("resonant_shift", "nonretarded", 16.0, math.pi, 0.01, TR) > 0
    assert axion_difference("nonresonant_shift", "nonretarded", 16.0, math.pi, 0.01, TR) > 0
    with pytest.raises(ValueError):
        axion_difference("nonresonant_shift", "retarded", 16.0, math.pi, 5.0, TR)
    with pytest.raises(ValueError):
        axion_difference("rate", "midfield", 16.0, math.pi, 5.0, TR)
    with pytest.raises(ValueError):
        axion_difference("force", "retarded", 16.0, math.pi, 5.0, TR)
    with pytest.raises(ValueError):
        axion_difference("rate", "retarded", -4.0, math.pi, 5.0, TR)
    # NaN epsilon and non-finite theta gave nan and -inf: the medium checks them
    with pytest.raises(ValueError, match="epsilon"):
        axion_difference("rate", "retarded", math.nan, math.pi, 5.0, TR)
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="theta"):
            axion_difference("rate", "retarded", 16.0, theta, 5.0, TR)


def test_axion_difference_is_the_law_of_the_difference_medium():
    # one rule: the difference law is `asymptotic` of r(theta) - r(0), and
    # at eps = 1, where r(0) = 0, it is the pure axion's law bit for bit,
    # both inserting the cross coefficient -Delta/2 alone
    pure = AxionMedium(epsilon=1.0, theta=math.pi)
    for regime, z, qtys in (("retarded", 5.0, ("rate", "resonant_shift")),
                            ("nonretarded", 0.02, ("rate", "resonant_shift",
                                                   "nonresonant_shift"))):
        for qty in qtys:
            for eps in (1.0, 16.0):
                law = asymptotic(AsymptoticCase(
                    regime, _AxionDifference(epsilon=eps, theta=math.pi), qty), TR, z)
                assert axion_difference(qty, regime, eps, math.pi, z, TR) == law
            assert axion_difference(qty, regime, 1.0, math.pi, z, TR) == \
                asymptotic(AsymptoticCase(regime, pure, qty), TR, z)


def test_difference_medium_approaches_its_laws():
    # the quadrature of r(theta) - r(0) itself, the medium the figures
    # integrate: the far-field laws at oscillation extrema, and at
    # zeta = 0.01 the near-field factors the `asymptotic` docstring states
    m16 = _AxionDifference(epsilon=16.0, theta=math.pi)
    for qty, fn, z in (("rate", decay_rate, 15 * math.pi / 2),
                       ("resonant_shift", resonant_shift, 29 * math.pi / 4)):
        law = axion_difference(qty, "retarded", 16.0, math.pi, z, TR)
        assert abs(fn(TR, z, m16) / law - 1) < 1e-3, qty      # 1.00009, 1.0001

    def near(fn, qty, eps):
        medium = _AxionDifference(epsilon=eps, theta=math.pi)
        return fn(TR, 0.01, medium) / axion_difference(qty, "nonretarded", eps,
                                                       math.pi, 0.01, TR)

    assert abs(near(resonant_shift, "resonant_shift", 16.0) - 1) < 0.05       # 0.976
    # the quasi-static insertion misses the s ~ 1 weight of the s-integral
    assert 1.20 < near(nonresonant_shift, "nonresonant_shift", 16.0) < 1.25  # 1.221
    assert abs(near(nonresonant_shift, "nonresonant_shift", 1.0) - 1) < 0.02  # 0.987


def test_pure_axion_decomposes_into_mirror_and_conductor():
    # with eps = mu = 1 every coefficient is k-independent, so the full
    # response is exactly the conversion-mirror channel times 2D/(4+D^2)
    # plus the conductor channel times D^2/(4+D^2)
    m = AxionMedium(epsilon=1.0, mu=1.0, theta=math.pi)
    dlt = m.delta
    c_mir = 2 * dlt / (4 + dlt ** 2)
    c_cond = dlt ** 2 / (4 + dlt ** 2)
    for z in (0.4, 1.3, 7.0):
        for fn in (decay_rate, resonant_shift):
            combo = c_mir * fn(TR, z, MIR) + c_cond * fn(TR, z, COND)
            assert fn(TR, z, m) == pytest.approx(combo, rel=1e-8)


def test_nonretarded_nres_difference_scaling_and_coefficient_gap():
    # The near-field difference law inserts the k_par -> infinity cross
    # coefficient, but on the rotated-frequency contour k_par and xi grow
    # together (both ~ 1/z), so the medium never reaches that deep-evanescent
    # regime pointwise: the measured difference keeps the z^-3 scaling while
    # its coefficient sits ~23% above the inserted-constant law.
    eps = 16.0
    vals = {}
    for z in (0.002, 0.004):
        n_p = nonresonant_shift(TR, z, AxionMedium(epsilon=eps, theta=math.pi))
        n_0 = nonresonant_shift(TR, z, AxionMedium(epsilon=eps, theta=0.0))
        vals[z] = n_p - n_0
    slope = math.log(vals[0.004] / vals[0.002]) / math.log(2.0)
    assert abs(slope + 3.0) < 0.05
    ratio = vals[0.002] / axion_difference("nonresonant_shift", "nonretarded",
                                           eps, math.pi, 0.002, TR)
    assert 1.15 < ratio < 1.32


# ---------------------------------------------------------------------------
# shifted-frequency fixed point

def test_self_consistent_zero_reflection_fixed_point():
    bd, iters = self_consistent_shift(TR, 1.0, ConstantReflectionMedium(),
                                      max_iter=10, tol=1e-14)
    assert iters == 1
    assert bd.total == 0.0


def test_self_consistent_default_is_one_shot():
    bd_fp, iters = self_consistent_shift(TR, 2.0, COND)
    bd = total_shift(TR, 2.0, COND)
    assert iters == 1
    assert bd_fp.resonant == bd.resonant
    assert bd_fp.nonresonant == pytest.approx(bd.nonresonant, rel=1e-14)


def test_self_consistent_converges_for_weak_dipole():
    weak = Transition(circular_dipole(0.1, "plus"), 1.0)
    bd, iters = self_consistent_shift(weak, 5.0, COND, max_iter=20, tol=1e-12)
    assert iters <= 10
    assert abs(bd.total) < 1e-3      # shift stays tiny against the bare frequency


def test_self_consistent_nonconvergence_raises():
    strong = Transition(circular_dipole(5.0, "plus"), 1.0)
    with pytest.raises(RuntimeError):
        self_consistent_shift(strong, 0.3, COND, max_iter=1, tol=1e-15)
    # the message reports the last update, |0.710839 - 0.708930|; it read 0,
    # formed after the iterate had taken the new value
    with pytest.raises(RuntimeError, match=r"in 3 steps \(last update 1\.909e-03, "):
        self_consistent_shift(TR, 0.5, COND, max_iter=3, tol=1e-12)
    with pytest.raises(ValueError):
        self_consistent_shift(TR, 1.0, COND, max_iter=0)
    for tol in (0.0, -1e-12, math.nan, math.inf, True, np.True_):   # True is no tolerance
        with pytest.raises(ValueError, match="tol"):
            self_consistent_shift(TR, 1.0, COND, max_iter=5, tol=tol)


def test_self_consistent_max_iter_is_an_integer():
    # True was taken as one step and returned as the count; 1.5 and 2.0
    # failed in range() with a TypeError
    for bad in (0, -1, True, False, 1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            self_consistent_shift(TR, 1.0, COND, max_iter=bad)
    assert self_consistent_shift(TR, 1.0, COND, max_iter=np.int64(2))[1] == 2


def test_positive_height_required():
    axion = AxionMedium(epsilon=16.0, theta=math.pi)
    for fn in (decay_rate, resonant_shift, nonresonant_shift):
        for z, medium in ((0.0, COND), (-1.0, MIR), (math.inf, COND), (math.nan, MIR),
                          (0.0, axion), (math.inf, axion), (math.nan, axion)):
            with pytest.raises(ValueError, match="height"):
                fn(TR, z, medium)


@given(lam=st.floats(0.1, 10.0), z=st.floats(0.2, 20.0))
@settings(max_examples=40, deadline=None)
def test_rate_scales_with_dipole_squared(lam, z):
    scaled = Transition(lam * TR.dipole, 1.0)
    assert decay_rate(scaled, z, MIR) == pytest.approx(
        lam ** 2 * decay_rate(TR, z, MIR), rel=1e-12)
