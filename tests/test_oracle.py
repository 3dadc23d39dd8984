"""The real-axis k-quadrature against an independent mpmath table.

tests/oracle_real_axis.json is written by scripts/make_oracle.py, which
imports mpmath alone: G_xx, G_zz and G_xy of the axion half-space at
theta = pi, omega = 1, for epsilon below and above 1 and heights from the
near field to the far field, to 20 digits.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cpshift.atomics import greens_grid
from cpshift.constants import ALPHA_FS
from cpshift.media import AxionMedium

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
