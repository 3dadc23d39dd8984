"""Physical constants and unit systems.

Two constant sets are provided:

* ``SI``      -- CODATA 2018 values in SI units, used only at the SI
  boundary (:class:`cpshift.units.UnitsPolicy`).
* ``SCALED``  -- the one system the physics runs in:
  c = hbar = mu0 = eps0 = 1.  Together with the canonical
  transition (frequency 1, circular dipole magnitude sqrt(3*pi)) the
  free-space decay rate mu0*w**3*d**2/(3*pi*hbar*c) equals exactly 1, so
  computed rates and shifts come out directly in free-space-rate units
  and distances in units of c/w.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Fine-structure constant (CODATA 2018).  Dimensionless, shared by both
# unit systems; enters only through the axion mismatch delta().
ALPHA_FS = 7.2973525693e-3


@dataclass(frozen=True)
class Constants:
    """Bundle of the constants the rate/shift formulas need."""

    c: float
    hbar: float
    mu0: float
    eps0: float


SI = Constants(
    c=299_792_458.0,
    hbar=1.054_571_817e-34,
    mu0=1.256_637_062_12e-6,
    eps0=8.854_187_8128e-12,
)

SCALED = Constants(c=1.0, hbar=1.0, mu0=1.0, eps0=1.0)

# Dipole magnitude that makes the scaled-mode free-space rate exactly 1
# for a unit transition frequency.
SCALED_DIPOLE_MAGNITUDE = math.sqrt(3.0 * math.pi)
