"""Units policy, atomic transitions and free-space reference quantities.

Internally everything runs in the scaled system (see :mod:`cpshift.constants`):
frequencies in units of the transition frequency, lengths in units of c/w,
rates and shifts in units of the free-space decay rate.  SI enters only at
the boundaries, through :class:`UnitsPolicy` conversions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SCALED, SCALED_DIPOLE_MAGNITUDE, SI, Constants


@dataclass(frozen=True)
class Transition:
    """One downward atomic transition n -> k.

    dipole    : complex 3-vector d_nk (C*m in SI, dimensionless scaled)
    frequency : transition frequency, > 0 (rad/s in SI, scaled otherwise)
    labels    : (upper, lower) level indices
    """

    dipole: np.ndarray
    frequency: float
    labels: tuple[int, int] = (1, 0)

    def __post_init__(self):
        d = np.asarray(self.dipole, dtype=complex)
        if d.shape != (3,):
            raise ValueError(f"dipole must be a 3-vector, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError(f"dipole components must be finite, got {d}")
        if not np.any(d != 0):
            raise ValueError("dipole vector is identically zero")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"transition frequency must be positive and finite, "
                             f"got {self.frequency}")
        object.__setattr__(self, "dipole", d)
        d.setflags(write=False)

    @property
    def dipole_conj(self) -> np.ndarray:
        """d_kn = conj(d_nk)."""
        return np.conj(self.dipole)

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
    if not (math.isfinite(magnitude) and magnitude >= 0):
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

    mode "scaled": frequencies in units of omega_ref, lengths in c/omega_ref,
    rates and shifts in units of the free-space rate of the reference
    transition.  mode "si": rad/s, meters, rates in 1/s.

    omega_ref  : reference transition frequency in rad/s
    dipole_ref : reference dipole magnitude in C*m
    """

    mode: str = "scaled"
    omega_ref: float = 2.5e15
    dipole_ref: float = 1.0e-29

    def __post_init__(self):
        if self.mode not in ("scaled", "si"):
            raise ValueError(f"mode must be 'scaled' or 'si', got {self.mode!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.omega_ref, self.dipole_ref)):
            raise ValueError(f"reference scales must be positive and finite, got "
                             f"omega_ref={self.omega_ref}, dipole_ref={self.dipole_ref}")

    @property
    def constants(self) -> Constants:
        return SI if self.mode == "si" else SCALED

    @property
    def length_ref(self) -> float:
        """Length unit c/omega_ref in meters."""
        return SI.c / self.omega_ref

    @property
    def rate_ref(self) -> float:
        """Free-space rate of the reference transition in 1/s."""
        return SI.mu0 * self.omega_ref**3 * self.dipole_ref**2 / (3.0 * math.pi * SI.hbar * SI.c)

    # quantity kinds: frequency, length, rate (shifts convert like rates)
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
            return self.dipole_ref
        raise ValueError(f"unknown quantity kind {kind!r}")


def free_space_rate(transition: Transition, policy: UnitsPolicy | None = None) -> float:
    """Free-space spontaneous-emission rate of the transition.

    SI mode evaluates mu0*w**3*d**2/(3*pi*hbar*c); scaled mode returns
    exactly 1 by convention (every scaled transition is normalized to its
    own free-space rate).
    """
    if policy is None or policy.mode == "scaled":
        return 1.0
    return free_space_rate_formula(transition, SI)


def free_space_rate_formula(transition: Transition, constants: Constants = SCALED) -> float:
    """The rate formula itself, in whatever unit system `constants` encodes."""
    w = transition.frequency
    d2 = transition.dipole_squared
    return constants.mu0 * w**3 * d2 / (3.0 * math.pi * constants.hbar * constants.c)
