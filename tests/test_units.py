"""Transitions, dipoles, the multilevel atom container, and unit conversions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpshift.atomics import decay_rate
from cpshift.constants import SI
from cpshift.media import PerfectConductor
from cpshift.units import (AtomModel, Transition, UnitsPolicy, canonical_transition,
                           circular_dipole, free_space_rate_formula)


def test_circular_dipole_components():
    d = circular_dipole(2.0, "plus")
    assert np.allclose(d, np.array([2.0, 2.0j, 0.0]) / math.sqrt(2.0))
    assert np.allclose(circular_dipole(2.0, "minus"), np.conj(d))


def test_circular_dipole_validation():
    with pytest.raises(ValueError):
        circular_dipole(-1.0)
    with pytest.raises(ValueError):
        circular_dipole(1.0, "left")
    for magnitude in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            circular_dipole(magnitude)


@given(mag=st.floats(1e-2, 1e2))
@settings(max_examples=40, deadline=None)
def test_circular_dipole_magnitude(mag):
    tr = Transition(circular_dipole(mag), 1.0)
    assert math.isclose(tr.dipole_squared, mag ** 2, rel_tol=1e-12)


def test_canonical_transition_normalization():
    tr = canonical_transition()
    assert tr.frequency == 1.0
    assert math.isclose(tr.dipole_squared, 3.0 * math.pi, rel_tol=1e-14)
    # the whole point of the scaled system: Gamma0 is exactly 1
    assert abs(free_space_rate_formula(tr) - 1.0) < 1e-14


def test_canonical_handedness_conjugate():
    plus = canonical_transition("plus")
    minus = canonical_transition("minus")
    assert np.allclose(minus.dipole, np.conj(plus.dipole))
    assert np.allclose(plus.conjugated().dipole, minus.dipole)
    assert np.allclose(plus.conjugated().conjugated().dipole, plus.dipole)


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(np.array([1.0, 0.0]), 1.0)        # not a 3-vector
    with pytest.raises(ValueError):
        Transition(np.zeros(3), 1.0)                 # identically zero
    with pytest.raises(ValueError):
        Transition(np.array([1.0, 0.0, 0.0]), 0.0)   # frequency must be > 0
    for frequency in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Transition(np.array([1.0, 0.0, 0.0]), frequency)
    for dipole in ([math.nan, 0.0, 0.0], [1.0, complex(0.0, math.inf), 0.0],
                   [1.0, 0.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            Transition(np.array(dipole), 1.0)
    tr = Transition(np.array([1.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        tr.dipole[0] = 2.0                           # stored vector is read-only


def test_atom_model_hermitian_autofill():
    d10 = np.array([0.3, 0.1j, 0.0])
    atom = AtomModel((0.0, 1.0), {(1, 0): d10})
    assert np.allclose(atom.dipole_matrix[(0, 1)], np.conj(d10))
    assert atom.num_levels == 2


def test_atom_model_rejects_non_hermitian():
    with pytest.raises(ValueError):
        AtomModel((0.0, 1.0), {(1, 0): [1.0, 0.0, 0.0],
                               (0, 1): [0.5, 0.0, 0.0]})


def test_atom_model_rejects_diagonal_dipole():
    with pytest.raises(ValueError):
        AtomModel((0.0, 1.0), {(0, 0): [1.0, 0.0, 0.0]})


def test_atom_model_level_validation():
    with pytest.raises(ValueError):
        AtomModel((0.0,))
    with pytest.raises(ValueError):
        AtomModel((0.0, 2.0, 1.0))
    for energies in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            AtomModel(energies)


def test_atom_model_transition_lookup():
    atom = AtomModel((0.0, 1.0, 2.5), {(1, 0): [1.0, 0.0, 0.0],
                                       (2, 0): [0.0, 1.0, 0.0]})
    tr = atom.transition(2, 0)
    assert tr.frequency == 2.5
    assert tr.labels == (2, 0)
    assert atom.transition(2, 0, shifted_frequency=2.4).frequency == 2.4
    with pytest.raises(KeyError):
        atom.transition(2, 1)          # dipole-forbidden pair
    with pytest.raises(ValueError):
        atom.transition(0, 1)          # upward ordering rejected


def test_units_policy_round_trips():
    pol = UnitsPolicy(omega_ref=2.5e15, dipole_ref=1.0e-29)
    for kind in ("frequency", "length", "rate", "shift", "dipole"):
        assert math.isclose(pol.from_si(pol.to_si(3.7, kind), kind), 3.7,
                            rel_tol=1e-14)
    with pytest.raises(ValueError):
        pol.to_si(1.0, "charge")


def test_units_policy_reference_scales():
    pol = UnitsPolicy()
    assert math.isclose(pol.length_ref, SI.c / pol.omega_ref, rel_tol=1e-14)
    expected = SI.mu0 * pol.omega_ref ** 3 * pol.dipole_ref ** 2 / (
        3.0 * math.pi * SI.hbar * SI.c)
    assert math.isclose(pol.rate_ref, expected, rel_tol=1e-14)
    # the reference dipole is the canonical scaled one
    assert math.isclose(pol.from_si(pol.dipole_ref, "dipole"),
                        math.sqrt(3.0 * math.pi), rel_tol=1e-15)


def test_units_policy_carries_si_transitions_to_si_rates():
    # a transition that is not the reference one, taken into scaled units
    # and its rates back to SI
    pol = UnitsPolicy(omega_ref=2.5e15, dipole_ref=1.0e-29)
    d_si, w_si = 2.3e-29, 3.1e15
    tr_si = Transition(circular_dipole(d_si), w_si)
    tr = Transition(circular_dipole(pol.from_si(d_si, "dipole")),
                    pol.from_si(w_si, "frequency"))
    gamma0_si = SI.mu0 * w_si ** 3 * d_si ** 2 / (3.0 * math.pi * SI.hbar * SI.c)
    assert math.isclose(pol.to_si(free_space_rate_formula(tr), "rate"), gamma0_si,
                        rel_tol=1e-14)
    # conductor contact limit: the body-induced rate is -Gamma0, to
    # O(zeta^2) = 1e-6, here in 1/s
    z = pol.from_si(1e-3 * SI.c / w_si, "length")
    rate = pol.to_si(decay_rate(tr, z, PerfectConductor()), "rate")
    assert math.isclose(rate, -gamma0_si, rel_tol=1e-6)


def test_units_policy_validation():
    with pytest.raises(ValueError):
        UnitsPolicy(omega_ref=0.0)
    for bad in (dict(omega_ref=math.nan), dict(omega_ref=math.inf),
                dict(dipole_ref=math.nan), dict(dipole_ref=math.inf)):
        with pytest.raises(ValueError, match="finite"):
            UnitsPolicy(**bad)

