"""The package names the benchmark's tooling reads.

perfbench/make_reference.py records QuadratureConfig's two cutoff constants
and its derived s-integral tolerance beside its references, and
perfbench/tracer.py wraps entry points by name.  Both are loaded by path
and checked here without running a workload, apart from one nonresonant
call under the tracer; the tests leave sys.path and sys.modules as they
found them.
"""
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import cpshift.atomics
import cpshift.cli
import cpshift.greens
import cpshift.media
import cpshift.scan
from cpshift.quadrature import QuadratureConfig
from cpshift.units import canonical_transition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# module -> the attributes Tracer.patched() wraps in it
TRACED = {
    cpshift.greens: ("integrate",),
    cpshift.atomics: ("integrate", "scattering_greens_numeric", "greens_tensor",
                      "nonresonant_shift_terms"),
    cpshift.scan: ("greens_tensor", "nonresonant_shift_terms", "run_scan", "figure"),
    cpshift.cli: ("run_scan", "figure", "main"),
}


@pytest.fixture
def load_perfbench(monkeypatch):
    """Load perfbench/<name>.py as a module; undo its sys.path entries and
    the perfbench modules it imported afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    for name in set(sys.modules) - before:
        if PERFBENCH in Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
            del sys.modules[name]


def test_reference_maker_reads_the_quadrature_settings(load_perfbench):
    path = list(sys.path)
    make_reference = load_perfbench("make_reference")
    assert sys.path[0] == str(PERFBENCH) and sys.path[1:] == path
    assert set(make_reference._quad(QuadratureConfig())) == {
        "rel_tol", "xi_rel_tol", "kappa_cutoff", "xi_cutoff"}
    # the references record the tolerance the s-integral ran at: a tenth of
    # rel_tol, at the default and at the references' own tightening
    for cfg in (QuadratureConfig(), QuadratureConfig().tighter(1e-3)):
        assert make_reference._quad(cfg)["xi_rel_tol"] == cfg.rel_tol / 10


def test_tracer_wraps_and_restores_every_entry_point(load_perfbench):
    tracer = load_perfbench("tracer")
    axion = cpshift.media.AxionMedium
    original = {(m, a): getattr(m, a) for m, attrs in TRACED.items() for a in attrs}
    reflection = axion.__dict__["reflection"]
    with tracer.Tracer().patched():
        for (module, attr), fn in original.items():
            assert getattr(module, attr).__wrapped__ is fn, (module.__name__, attr)
        assert axion.__dict__["reflection"].__wrapped__ is reflection
    for (module, attr), fn in original.items():
        assert getattr(module, attr) is fn, (module.__name__, attr)
    assert axion.__dict__["reflection"] is reflection


def test_tracer_counts_the_s_integrals_reflection_nodes(load_perfbench):
    # the tracer reads a reflection call's nodes from its k_perp, the third
    # positional argument of the bound call: one height above the eps = 16
    # half-space converges in its start round, one reflection call on all
    # of its nodes
    tracer = load_perfbench("tracer")
    medium = cpshift.media.AxionMedium(epsilon=16.0, theta=math.pi)
    with tracer.Tracer().patched() as t:
        terms = cpshift.atomics.nonresonant_shift_terms(canonical_transition(), 0.5, medium)
    spans = t.take()
    calls = [counts for _, _, name, _, _, counts in spans if name == "media.reflection"]
    assert calls == [{"nodes": terms.neval}]
    assert [counts for _, _, name, _, _, counts in spans
            if name == "atomics.nonresonant"] == [{"neval": terms.neval}]
