"""Units policy, atomic transitions and free-space reference quantities.

The physics (media, Green's tensors, rates and shifts) runs in one unit
system only, the scaled one of :mod:`cpshift.constants`: c = hbar = mu0 =
eps0 = 1.  With a reference frequency omega_ref as the frequency unit,
lengths come in units of c/omega_ref, and a dipole of magnitude
sqrt(3 pi) at frequency 1 has free-space rate exactly 1, so rates and
shifts come in units of the reference transition's free-space rate.  SI
enters only at the boundary, through :class:`UnitsPolicy`: `from_si` takes
an SI frequency, height or dipole into the scaled system, and `to_si` takes
a scaled rate or shift back.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import SCALED_DIPOLE_MAGNITUDE, SI
from .quadrature import _check_positive


@dataclass(frozen=True)
class Transition:
    """One downward atomic transition n -> k.

    dipole    : complex 3-vector d_nk, d . d* a positive finite double
    frequency : transition frequency, > 0, with a free-space rate
                w^3 d . d*/(3 pi) that is a positive normal double
    labels    : (upper, lower) level indices
    """

    dipole: np.ndarray
    frequency: float
    labels: tuple[int, int] = (1, 0)

    def __post_init__(self):
        d = np.asarray(self.dipole, dtype=complex)
        if d.shape != (3,):
            raise ValueError(f"dipole must be a 3-vector, got shape {d.shape}")
        object.__setattr__(self, "dipole", d)
        d.setflags(write=False)
        # d . d* scales every rate and shift, and Gamma0 = w^3 d . d*/(3 pi)
        # normalizes a scan's: one that underflows or overflows would make
        # them nan or inf
        _check_positive("dipole d . d*", self.dipole_squared)
        _check_positive("transition frequency", self.frequency)
        try:
            gamma0 = free_space_rate_formula(self)
        except OverflowError:  # w ** 3 of a Python float beyond the largest double
            gamma0 = math.inf
        if not sys.float_info.min <= gamma0 < math.inf:
            raise ValueError(f"free-space rate w^3 d . d*/(3 pi) must be a positive "
                             f"normal double, got {gamma0} at frequency {self.frequency}")

    @property
    def dipole_squared(self) -> float:
        """d**2 = d . d* (real)."""
        return float(np.real(np.vdot(self.dipole, self.dipole)))

    def conjugated(self) -> "Transition":
        """Same transition with d -> d* (handedness flip for circular dipoles)."""
        return Transition(np.conj(self.dipole), self.frequency, self.labels)


def circular_dipole(magnitude: float, handedness: str = "plus") -> np.ndarray:
    """Circularly polarized in-plane dipole (d/sqrt(2))*(1, +-i, 0).

    handedness "plus" gives the (1, +i, 0) vector, "minus" its conjugate.
    The overall magnitude satisfies d . d* = magnitude**2.
    """
    if (isinstance(magnitude, (bool, np.bool_))
            or not (math.isfinite(magnitude) and magnitude >= 0)):
        raise ValueError(f"dipole magnitude must be finite and >= 0, got {magnitude}")
    if handedness == "plus":
        s = 1.0
    elif handedness == "minus":
        s = -1.0
    else:
        raise ValueError(f"handedness must be 'plus' or 'minus', got {handedness!r}")
    return (magnitude / math.sqrt(2.0)) * np.array([1.0, s * 1.0j, 0.0])


def canonical_transition(handedness: str = "plus") -> Transition:
    """Scaled-mode reference transition: frequency 1, |d|^2 = 3*pi.

    With these values the free-space rate formula evaluates to exactly 1,
    so all scaled-mode outputs are directly in free-space-rate units.
    """
    return Transition(circular_dipole(SCALED_DIPOLE_MAGNITUDE, handedness), 1.0)


@dataclass(frozen=True)
class AtomModel:
    """Multilevel atom: ordered level energies and the dipole matrix.

    dipole_matrix maps (m, n) -> complex 3-vector with d_mn = conj(d_nm)
    and zero diagonal (the atom is unpolarized in its energy eigenstates).
    Missing pairs are treated as dipole-forbidden.
    """

    level_energies: tuple[float, ...]
    dipole_matrix: dict = field(default_factory=dict)

    def __post_init__(self):
        energies = tuple(float(e) for e in self.level_energies)
        if len(energies) < 2:
            raise ValueError("need at least two levels")
        if not all(map(math.isfinite, energies)):
            raise ValueError(f"level energies must be finite, got {energies}")
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValueError("level energies must be strictly increasing")
        object.__setattr__(self, "level_energies", energies)
        dm = {}
        for (m, n), d in self.dipole_matrix.items():
            d = np.asarray(d, dtype=complex)
            if m == n and np.any(d != 0):
                raise ValueError(f"diagonal dipole element ({m},{n}) must vanish")
            dm[(m, n)] = d
        for (m, n), d in list(dm.items()):
            other = dm.get((n, m))
            if other is None:
                dm[(n, m)] = np.conj(d)
            elif not np.allclose(other, np.conj(d), rtol=0, atol=1e-14 * max(1.0, np.abs(d).max())):
                raise ValueError(f"dipole matrix not Hermitian at ({m},{n})")
        object.__setattr__(self, "dipole_matrix", dm)

    @property
    def num_levels(self) -> int:
        return len(self.level_energies)

    def transition(self, upper: int, lower: int, shifted_frequency: float | None = None) -> Transition:
        """Build the Transition object for levels upper -> lower."""
        if not (0 <= lower < upper < self.num_levels):
            raise ValueError(f"need 0 <= lower < upper < {self.num_levels}")
        d = self.dipole_matrix.get((upper, lower))
        if d is None:
            raise KeyError(f"transition ({upper},{lower}) is dipole-forbidden")
        freq = shifted_frequency
        if freq is None:
            freq = self.level_energies[upper] - self.level_energies[lower]
        return Transition(d, freq, (upper, lower))


@dataclass(frozen=True)
class UnitsPolicy:
    """Converts between scaled and SI quantities.

    Scaled units: frequencies in units of omega_ref, lengths in c/omega_ref,
    dipoles in units of dipole_ref/sqrt(3 pi), rates and shifts in units of
    the free-space rate of the reference transition (omega_ref, dipole_ref).
    SI: rad/s, meters, C*m, rates and shifts in 1/s.

    omega_ref  : reference transition frequency in rad/s
    dipole_ref : reference dipole magnitude in C*m
    """

    omega_ref: float = 2.5e15
    dipole_ref: float = 1.0e-29

    def __post_init__(self):
        _check_positive("omega_ref", self.omega_ref)
        _check_positive("dipole_ref", self.dipole_ref)

    @property
    def length_ref(self) -> float:
        """Length unit c/omega_ref in meters."""
        return SI.c / self.omega_ref

    @property
    def rate_ref(self) -> float:
        """Free-space rate of the reference transition in 1/s."""
        return SI.mu0 * self.omega_ref**3 * self.dipole_ref**2 / (3.0 * math.pi * SI.hbar * SI.c)

    # quantity kinds: frequency, length, dipole, rate (shifts convert like rates)
    def to_si(self, value: float, kind: str) -> float:
        scale = self._scale(kind)
        return value * scale

    def from_si(self, value: float, kind: str) -> float:
        scale = self._scale(kind)
        return value / scale

    def _scale(self, kind: str) -> float:
        if kind == "frequency":
            return self.omega_ref
        if kind == "length":
            return self.length_ref
        if kind in ("rate", "shift"):
            return self.rate_ref
        if kind == "dipole":
            # dipole_ref maps to the canonical scaled magnitude sqrt(3 pi)
            return self.dipole_ref / SCALED_DIPOLE_MAGNITUDE
        raise ValueError(f"unknown quantity kind {kind!r}")


def free_space_rate_formula(transition: Transition) -> float:
    """Free-space rate w**3 |d|**2/(3 pi) of the transition, in the package's
    units (`UnitsPolicy.rate_ref` is the same formula in SI)."""
    w = transition.frequency
    d2 = transition.dipole_squared
    return w**3 * d2 / (3.0 * math.pi)
