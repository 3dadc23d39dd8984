#!/usr/bin/env python3
"""Derive the 15-point Gauss-Kronrod rule on [-1, 1] with mpmath alone.

    python3 scripts/gauss_kronrod.py

The Kronrod extension of the 7-point Gauss rule adds the 8 roots of the
Stieltjes polynomial E8, the monic polynomial of degree 8 orthogonal to
P7(x) x^k for k = 0 ... 7.  P7 is odd and E8 even, so only the odd k give
equations, four for the four even coefficients of E8.  The 15 weights then
solve the moment system sum_i w_i x_i^m = int_{-1}^{1} x^m dx for
m = 0 ... 14, and the Gauss weights the same system on the 7 Gauss nodes.
Everything runs at 60 digits.  Prints `quadrature.py`'s three arrays, each
value the double nearest the exact constant, to 17 significant digits (which
identify it), followed by the weight sums in doubles.
"""
import math

import mpmath

mpmath.mp.dps = 60


def _legendre_coefficients(n):
    """Coefficients of P_n in ascending powers (Abramowitz & Stegun 22.3.8)."""
    c = [mpmath.mpf(0)] * (n + 1)
    for k in range(n // 2 + 1):
        c[n - 2 * k] = mpmath.mpf((-1) ** k * math.factorial(2 * n - 2 * k)) / (
            2 ** n * math.factorial(k) * math.factorial(n - k) * math.factorial(n - 2 * k))
    return c


def _moment(m):
    """int_{-1}^{1} x^m dx."""
    return mpmath.mpf(2) / (m + 1) if m % 2 == 0 else mpmath.mpf(0)


def _weights(nodes):
    """The weights that integrate x^m exactly for m < len(nodes)."""
    n = len(nodes)
    a = mpmath.matrix([[x ** m for x in nodes] for m in range(n)])
    return list(mpmath.lu_solve(a, mpmath.matrix([_moment(m) for m in range(n)])))


def derive():
    p7 = _legendre_coefficients(7)

    def p7_moment(m):  # int P7(x) x^m dx
        return sum(c * _moment(i + m) for i, c in enumerate(p7))

    # E8 = x^8 + c6 x^6 + c4 x^4 + c2 x^2 + c0, orthogonal to P7 x^k, k odd
    even = (0, 2, 4, 6)
    a = mpmath.matrix([[p7_moment(j + k) for j in even] for k in (1, 3, 5, 7)])
    c = mpmath.lu_solve(a, mpmath.matrix([-p7_moment(8 + k) for k in (1, 3, 5, 7)]))
    e8 = [mpmath.mpf(0)] * 9
    e8[8] = mpmath.mpf(1)
    for j, cj in zip(even, c):
        e8[j] = cj
    gauss = sorted(mpmath.re(r) for r in mpmath.polyroots(p7[::-1], maxsteps=200,
                                                          extraprec=200))
    kronrod = sorted(mpmath.re(r) for r in mpmath.polyroots(e8[::-1], maxsteps=200,
                                                            extraprec=200))
    nodes = sorted(gauss + kronrod)
    return nodes, _weights(nodes), _weights(gauss)


def _array(values):
    # float() of an mpf is the nearest double; 17 digits identify it
    lines = [", ".join(f"{float(v):.17g}" for v in values[i:i + 3])
             for i in range(0, len(values), 3)]
    return "[\n    " + ",\n    ".join(lines) + ",\n]"


def main():
    nodes, k15, g7 = derive()
    print(f"_K15_NODES = np.array({_array(nodes)})")
    print(f"_K15_WEIGHTS = np.array({_array(k15)})")
    print(f"_G7_WEIGHTS[1::2] = {_array(g7)}")
    print("# sums in doubles: K15", sum(map(float, k15)), "G7", sum(map(float, g7)))


if __name__ == "__main__":
    main()
