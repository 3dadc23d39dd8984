"""Diagonal rate-equation dynamics for multilevel atoms."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from cpshift import atomics
from cpshift.atomics import PopulationState, _expm_triangular, evolve_populations
from cpshift.units import AtomModel

TWO_LEVEL = AtomModel((0.0, 1.0), {(1, 0): [1.0, 0.0, 0.0]})
THREE_LEVEL = AtomModel((0.0, 1.0, 2.5), {(1, 0): [0.3, 0.1j, 0.0],
                                          (2, 1): [0.2, 0.0, 0.1],
                                          (2, 0): [0.1, 0.0, 0.0]})


def test_two_level_exponential_decay():
    gamma = 1.0
    t = np.linspace(0.0, 10.0 / gamma, 201)
    traj = evolve_populations(TWO_LEVEL, {(1, 0): gamma}, t)
    assert np.abs(traj[:, 1] - np.exp(-gamma * t)).max() < 1e-8
    assert np.abs(traj[:, 0] - (1.0 - np.exp(-gamma * t))).max() < 1e-8


def test_three_level_cascade_against_matrix_exponential():
    rates = {(2, 1): 1.0, (1, 0): 0.5, (2, 0): 0.25}
    t = np.linspace(0.0, 10.0, 101)
    traj = evolve_populations(THREE_LEVEL, rates, t)
    gen = np.zeros((3, 3))
    for (n, k), g in rates.items():
        gen[n, n] -= g
        gen[k, n] += g
    p0 = np.array([0.0, 0.0, 1.0])
    for i, ti in enumerate(t):
        assert np.abs(traj[i] - expm(gen * ti) @ p0).max() < 1e-9


@pytest.mark.parametrize("stiff", [False, True])
def test_exponential_against_scipy_on_random_generators(stiff):
    # seeded triangular generators of 2-5 levels; the stiff ones draw rates
    # over six decades, so 2^s squarings amplify any error on the diagonal
    rng = np.random.default_rng(7 + stiff)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        gen = np.zeros((n, n))
        for upper in range(n):
            for lower in range(upper):
                g = 10.0 ** rng.uniform(-3, 3) if stiff else rng.uniform(0.0, 2.0)
                gen[upper, upper] -= g
                gen[lower, upper] += g
        a = gen * 10.0 ** rng.uniform(-2, 3)
        ref = expm(a)
        assert np.abs(_expm_triangular(a) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_population_conservation():
    rates = {(2, 1): 1.0, (1, 0): 0.5, (2, 0): 0.25}
    t = np.linspace(0.0, 10.0, 101)      # 10 / Gamma_max
    traj = evolve_populations(THREE_LEVEL, rates, t)
    assert np.abs(traj.sum(axis=1) - 1.0).max() < 1e-9
    assert traj.min() > -1e-12


def test_zero_rates_keep_populations_constant():
    t = np.linspace(0.0, 5.0, 11)
    traj = evolve_populations(TWO_LEVEL, {}, t,
                              initial=np.array([0.3, 0.7]))
    assert np.abs(traj - np.array([0.3, 0.7])).max() < 1e-12


def test_array_and_dict_rate_forms_agree():
    rates = {(2, 1): 1.0, (1, 0): 0.5, (2, 0): 0.25}
    arr = np.zeros((3, 3))
    for (n, k), g in rates.items():
        arr[n, k] = g
    t = np.linspace(0.0, 4.0, 9)
    a = evolve_populations(THREE_LEVEL, rates, t)
    b = evolve_populations(THREE_LEVEL, arr, t)
    assert np.abs(a - b).max() < 1e-12


def test_rate_table_validation():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, {(0, 1): 1.0}, t)      # upward
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, {(1, 0): -0.5}, t)     # negative total
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            evolve_populations(TWO_LEVEL, {(1, 0): rate}, t)
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, np.zeros((3, 3)), t)   # wrong shape
    bad = np.zeros((2, 2))
    bad[0, 1] = 1.0                                          # upper triangle
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, bad, t)
    bad = np.zeros((2, 2))
    bad[1, 1] = 1.0                                          # diagonal
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, bad, t)


def test_time_grid_and_initial_state_validation():
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, np.linspace(0, 1, 5),
                           initial=np.array([1.0, 0.0, 0.0]))


def test_non_finite_times_and_populations_are_rejected_before_any_exponential(
        monkeypatch):
    # NaN passes both p < 0 and p.sum() > 1, and a NaN or inf time passed
    # the ordering check: each gave a trajectory of NaN rows
    def no_exponential(a):
        raise AssertionError("matrix exponential ran on invalid input")

    monkeypatch.setattr(atomics, "_expm_triangular", no_exponential)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, [0.0, bad])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PopulationState([bad, 0.5])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, [0.0, 1.0],
                               initial=[bad, 0.0])


def test_default_initial_state_is_topmost_level():
    t = np.array([0.0, 0.1])
    traj = evolve_populations(THREE_LEVEL, {(2, 1): 1.0}, t)
    assert np.allclose(traj[0], [0.0, 0.0, 1.0])


def test_population_state_validation():
    with pytest.raises(ValueError):
        PopulationState(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        PopulationState(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        PopulationState(np.array([]))
    with pytest.raises(ValueError):
        PopulationState(np.eye(2))
    s = PopulationState.excited(3)
    assert np.allclose(s.populations, [0.0, 0.0, 1.0])
    s = PopulationState.excited(3, level=1)
    assert np.allclose(s.populations, [0.0, 1.0, 0.0])


def test_custom_initial_population_state():
    t = np.linspace(0.0, 2.0, 5)
    init = PopulationState(np.array([0.0, 1.0]))
    traj = evolve_populations(TWO_LEVEL, {(1, 0): 1.0}, t, initial=init)
    assert traj[0, 1] == pytest.approx(1.0)
    assert traj[-1, 1] == pytest.approx(np.exp(-2.0), rel=1e-8)
