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
are down to about 1e-4 of the totals).  It is written to
tests/oracle_real_axis.json unless OUT is given; tests/test_oracle.py holds
the package's k-quadrature to it.

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
             "difference_rows": [difference_row(z) for z in ZETAS]}
    args.out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
