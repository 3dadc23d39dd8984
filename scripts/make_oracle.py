#!/usr/bin/env python3
"""Write the real-axis oracle table: the scattering tensor above an axion
half-space by a 1-D mpmath quadrature in the original variable k_par.

Usage:
    python3 scripts/make_oracle.py [OUT]            # the whole table
    python3 scripts/make_oracle.py --only EPS ZETA  # one row, printed

The table holds G_xx, G_zz and G_xy at omega = 1 and height z = zeta, in
the package's units c = hbar = mu0 = eps0 = 1, for epsilon in
{0.25, 4, 16}, theta = pi and zeta in {0.001, 0.05, 1, 8, 100}, as
decimal strings of DIGITS significant digits (`rows`).  Beside them,
`difference_rows` hold the with-minus-without-axion tensor at epsilon = 16,
G(theta = pi) - G(theta = 0), at the same zeta: two tensors subtracted at
DIGITS + 10 working digits, which absorb the cancellation (the differences
are down to about 1e-4 of the totals).  `nonresonant_rows` hold both
terms of the nonresonant shift at epsilon = 16, theta = pi and the same
zeta, for the canonical transition (omega = 1, d = sqrt(3 pi/2) (1, i, 0)).
It is written to tests/oracle_real_axis.json unless OUT is given;
tests/test_oracle.py holds the package to it.

Nothing here comes from the package: only mpmath is imported.  With
k_perp = sqrt(1 - k_par^2) and k_2 = sqrt(eps - k_par^2), both on the branch
Im >= 0, each entry is

    G_ab = (i/8pi) int_0^inf dk_par (k_par/k_perp) e^{2 i k_perp z} K_ab,
    K_xx = r_ss - r_pp k_perp^2,  K_zz = 2 r_pp k_par^2,
    K_xy = (r_sp + r_ps) k_perp,

with the Fresnel coefficients of the axion half-space, Delta = alpha
theta/pi:  D = (k_perp + k_2)(eps k_perp + k_2) + k_perp k_2 Delta^2,
r_ss = [(k_perp - k_2)(eps k_perp + k_2) - k_perp k_2 Delta^2]/D,
r_pp = [(eps k_perp - k_2)(k_perp + k_2) + k_perp k_2 Delta^2]/D and
r_sp = r_ps = -2 k_perp k_2 Delta/D.  `mp.quad` (tanh-sinh) takes the
half-line in pieces split at the two points where the integrand is not
smooth: the vacuum lightline k_par = 1, where the measure has an
integrable 1/k_perp, and the medium's, k_par = sqrt(eps), a square-root
branch point of k_2.  Below the vacuum lightline it integrates over
k_par = sin(phi), above it over k_par = cosh(psi); there k_perp =
cos(phi) resp. i sinh(psi) carries no cancellation, and the measure is
sin(phi) dphi resp. -i cosh(psi) dpsi.  The last piece ends where
e^{2 i k_perp z} = e^{-2 z sinh(psi)} has fallen below 10^-(DIGITS + 20).  A row takes about a
second, a difference row a few.

The nonresonant rows start from the same integral on the imaginary axis,
omega = i xi.  There k_perp = i s xi (s >= 1) turns it into G_ab =
(xi/8pi) int_1^inf ds e^{-2 s xi z} K_ab(s) with K_xx = r_ss - r_pp s^2,
K_zz = 2 r_pp (1 - s^2) and K_xy = (r_sp + r_ps) s, and k_2 = i s_2 xi with
s_2 = sqrt(s^2 + eps - 1), so the Fresnel coefficients are those above with
k_perp -> s, k_2 -> s_2 (each is a ratio of quadratic forms), and real.
The dipole sandwich is P(s) = 3 pi (K_xx - i K_xy).  With the shift

    dw_nres = (1/pi) int_0^inf dxi xi^3/(xi^2 + 1) Im s(i xi)
              - (1/pi) int_0^inf dxi xi^2/(xi^2 + 1) Re s(i xi)

and the xi-integral taken first,

    im_term = (1/8pi^2) int_1^inf ds Im P(s) B_4(2 s z),
    re_term = -(1/8pi^2) int_1^inf ds Re P(s) B_3(2 s z),

with B_n(b) = int_0^inf x^n e^{-bx}/(x^2 + 1) dx = Im int_0^inf x^n e^{-bx}
/(x - i) dx.  Writing 1/(x - i) = int_0^inf e^{-(x - i) t} dt gives B_n(b) =
Im n! b^-n e^w E_{n+1}(w) at w = -i b (`mpmath.expint`).  `mp.quad` takes
the s-integral split at s = 1 + 1/(2z), where the moments fall off, at
DIGITS + 10 working digits: Im e^w E_{n+1}(w) is a small part of
e^w E_{n+1}(w) where b is small.  A row takes up to ten seconds (zeta = 1e-3).
"""
import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

DIGITS = 20
ALPHA = "7.2973525693e-3"  # CODATA 2018, the package's ALPHA_FS
EPSILONS = (0.25, 4.0, 16.0)
ZETAS = (1e-3, 0.05, 1.0, 8.0, 100.0)
THETA_OVER_PI = 1
DIFFERENCE_EPSILON = 16.0
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "tests" / "oracle_real_axis.json"


def _root(k2):
    """sqrt(k2) on the branch Im >= 0 (Re >= 0 on the real axis)."""
    return mp.sqrt(k2) if k2 >= 0 else 1j * mp.sqrt(-k2)


def tensor(epsilon, zeta, theta_over_pi=THETA_OVER_PI):
    """(G_xx, G_zz, G_xy) at omega = 1, z = zeta, as mpc."""
    eps, z = mp.mpf(epsilon), mp.mpf(zeta)
    delta = mp.mpf(ALPHA) * theta_over_pi

    def kernels(kpar, k1, measure):
        # the three integrands at k_par, k_perp = k1, times measure = the
        # differential (k_par/k_perp) dk_par per unit of the angle variable
        k2 = _root(eps - kpar * kpar)
        mix = k1 * k2 * delta ** 2
        den = (k1 + k2) * (eps * k1 + k2) + mix
        r_ss = ((k1 - k2) * (eps * k1 + k2) - mix) / den
        r_pp = ((eps * k1 - k2) * (k1 + k2) + mix) / den
        r_x = -2 * k1 * k2 * delta / den
        weight = measure * mp.exp(2j * k1 * z)
        return (weight * (r_ss - r_pp * k1 * k1), weight * 2 * r_pp * kpar * kpar,
                weight * 2 * r_x * k1)

    def below(phi):  # k_par = sin(phi) in [0, 1]: k_perp = cos(phi)
        return kernels(mp.sin(phi), mp.cos(phi), mp.sin(phi))

    def above(psi):  # k_par = cosh(psi) >= 1: k_perp = i sinh(psi)
        return kernels(mp.cosh(psi), 1j * mp.sinh(psi), -1j * mp.cosh(psi))

    n = mp.sqrt(eps)
    # beyond psi_far, e^{-2 z sinh psi} < 10^-(DIGITS + 20): the dropped
    # tail is below 10^-DIGITS of every entry of the table
    psi_far = mp.asinh((DIGITS + 20) * mp.log(10) / (2 * z))
    phis = [0, mp.asin(n), mp.pi / 2] if n < 1 else [0, mp.pi / 2]
    psis = [0, mp.acosh(n), psi_far] if 1 < n < mp.cosh(psi_far) else [0, psi_far]
    return tuple(1j / (8 * mp.pi) * (mp.quad(lambda p: below(p)[c], phis)
                                     + mp.quad(lambda p: above(p)[c], psis))
                 for c in range(3))


def _row(epsilon, zeta, entries):
    return {"epsilon": epsilon, "zeta": zeta,
            **{name: [mp.nstr(v.real, DIGITS), mp.nstr(v.imag, DIGITS)]
               for name, v in zip(("xx", "zz", "xy"), entries)}}


def row(epsilon, zeta):
    with mp.workdps(DIGITS + 5):
        return _row(epsilon, zeta, tensor(epsilon, zeta))


def difference_row(zeta):
    """The theta = pi minus theta = 0 tensor at epsilon = DIFFERENCE_EPSILON."""
    with mp.workdps(DIGITS + 10):
        on, off = tensor(DIFFERENCE_EPSILON, zeta), tensor(DIFFERENCE_EPSILON, zeta, 0)
        return _row(DIFFERENCE_EPSILON, zeta, [a - b for a, b in zip(on, off)])


def moment(n, b):
    """B_n(b) = int_0^inf x^n e^{-bx}/(x^2 + 1) dx, as mpf."""
    w = -1j * b
    return mp.factorial(n) / b ** n * (mp.exp(w) * mp.expint(n + 1, w)).imag


def nonresonant_terms(epsilon, zeta):
    """(im_term, re_term) of the nonresonant shift at z = zeta, as mpf."""
    eps, z = mp.mpf(epsilon), mp.mpf(zeta)
    delta = mp.mpf(ALPHA) * THETA_OVER_PI

    def sandwich(s):
        # (Re P, Im P) at s, from the Fresnel coefficients on the imaginary axis
        s2 = mp.sqrt(s * s + eps - 1)
        mix = s * s2 * delta ** 2
        den = (s + s2) * (eps * s + s2) + mix
        r_ss = ((s - s2) * (eps * s + s2) - mix) / den
        r_pp = ((eps * s - s2) * (s + s2) + mix) / den
        r_x = -2 * s * s2 * delta / den
        return 3 * mp.pi * (r_ss - r_pp * s * s), -3 * mp.pi * 2 * r_x * s

    knee = 1 + 1 / (2 * z)
    pieces = [1, 2, knee, mp.inf] if knee > 2 else [1, mp.inf]
    im = mp.quad(lambda s: sandwich(s)[1] * moment(4, 2 * s * z), pieces)
    re = mp.quad(lambda s: sandwich(s)[0] * moment(3, 2 * s * z), pieces)
    return im / (8 * mp.pi ** 2), -re / (8 * mp.pi ** 2)


def nonresonant_row(zeta):
    with mp.workdps(DIGITS + 10):
        im, re = nonresonant_terms(DIFFERENCE_EPSILON, zeta)
        return {"epsilon": DIFFERENCE_EPSILON, "zeta": zeta,
                "im_term": mp.nstr(im, DIGITS), "re_term": mp.nstr(re, DIGITS)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--only", nargs=2, type=float, metavar=("EPS", "ZETA"),
                    help="print the row of one (epsilon, zeta) instead")
    args = ap.parse_args(argv)
    if args.only:
        epsilon, zeta = args.only
        if not (0 < epsilon < mp.inf and 0 < zeta < mp.inf):
            ap.error(f"need finite epsilon > 0 and zeta > 0, got {epsilon}, {zeta}")
        print(json.dumps(row(epsilon, zeta)))
        return 0
    table = {"omega": 1, "theta_over_pi": THETA_OVER_PI, "alpha": ALPHA,
             "digits": DIGITS, "generator": "scripts/make_oracle.py",
             "rows": [row(e, z) for e in EPSILONS for z in ZETAS],
             "difference_rows": [difference_row(z) for z in ZETAS],
             "nonresonant_rows": [nonresonant_row(z) for z in ZETAS]}
    args.out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
