"""The real-axis k-quadrature against an independent mpmath table.

tests/oracle_real_axis.json is written by scripts/make_oracle.py, which
imports mpmath alone: G_xx, G_zz and G_xy of the axion half-space at
theta = pi, omega = 1, for epsilon below and above 1 and heights from the
near field to the far field, to 20 digits; and, at epsilon = 16, the
with-minus-without-axion tensor G(theta = pi) - G(theta = 0), subtracted
there at 30 working digits; and, at epsilon = 16, both terms of the
nonresonant shift from a 1-D s-integral with mpmath's exponential integral.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cpshift.atomics import greens_grid, nonresonant_shift_terms
from cpshift.constants import ALPHA_FS
from cpshift.greens import numeric_greens
from cpshift.media import AxionMedium, _AxionDifference
from cpshift.units import canonical_transition

TABLE = json.loads(Path(__file__).with_name("oracle_real_axis.json").read_text())
EPSILONS = sorted({row["epsilon"] for row in TABLE["rows"]})


def test_table_is_stated_in_the_package_constants():
    assert float(TABLE["alpha"]) == ALPHA_FS
    assert TABLE["omega"] == 1 and TABLE["theta_over_pi"] == 1
    assert len(TABLE["rows"]) == 15 and EPSILONS == [0.25, 4.0, 16.0]


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_greens_grid_holds_the_oracle(epsilon):
    # at the default tolerances, every entry to 1e-12 of itself: the table
    # integrates along the real k_par axis, the package along k_perp =
    # omega + i u, and the worst entry seen is 1.4e-15 off
    rows = [row for row in TABLE["rows"] if row["epsilon"] == epsilon]
    g = greens_grid(AxionMedium(epsilon=epsilon, theta=math.pi),
                    np.array([row["zeta"] for row in rows]), 1.0)
    for j, row in enumerate(rows):
        for name in ("xx", "zz", "xy"):
            want = complex(float(row[name][0]), float(row[name][1]))
            got = getattr(g, name)[j]
            assert abs(got - want) <= 1e-12 * abs(want), (row["zeta"], name)


def test_difference_traces_hold_the_oracle_difference():
    # the figures' difference traces integrate r(pi) - r(0) itself: every
    # entry to 1e-12 of itself, and the worst entry seen is 4.2e-16 off
    # (zz at zeta = 8).  Subtracting the theta = pi and theta = 0 tensors
    # instead lands 1.4e-9 off, at the subtraction's rounding floor.
    rows = TABLE["difference_rows"]
    assert [row["zeta"] for row in rows] == [row["zeta"] for row in TABLE["rows"]
                                             if row["epsilon"] == 16.0]
    g = numeric_greens(np.array([row["zeta"] for row in rows]), 1.0,
                       _AxionDifference(epsilon=16.0, theta=math.pi))
    for j, row in enumerate(rows):
        for name in ("xx", "zz", "xy"):
            want = complex(float(row[name][0]), float(row[name][1]))
            got = getattr(g, name)[j]
            assert abs(got - want) <= 1e-12 * abs(want), (row["zeta"], name)


def test_nonresonant_terms_hold_the_oracle():
    # both terms to 1e-12 of themselves, each scaled by its own value (the
    # im_term is 1e-3 to 1e-4 of the re_term); the worst seen is 3.3e-16
    # (im_term at zeta = 0.05).  zeta = 1e-3 and 0.05 sit below 2 omega z
    # = 1, where the s-integral's map departs from tau = 1/s.
    rows = TABLE["nonresonant_rows"]
    assert [row["zeta"] for row in rows] == [row["zeta"] for row in TABLE["rows"]
                                             if row["epsilon"] == 16.0]
    for row in rows:
        terms = nonresonant_shift_terms(canonical_transition("plus"), row["zeta"],
                                        AxionMedium(epsilon=16.0, theta=math.pi))
        for name in ("im_term", "re_term"):
            want = float(row[name])
            assert abs(getattr(terms, name) - want) <= 1e-12 * abs(want), (row["zeta"], name)
