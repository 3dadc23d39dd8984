"""Checks of the benchmark's own logic: the output gate, the seeded inputs
and the span arithmetic.  Run with `python3 -m pytest perfbench/tests`;
the package's own test run (testpaths = tests) does not collect them."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TI_REF = workloads.REFERENCE_DIR / "ti_traces"


def _ti_csv():
    return sorted(TI_REF.glob("*.csv"))[0]


def _write_perturbed(src: Path, dest: Path, column: int, row: int, delta_scaled: float):
    table = gate.read_csv(src)
    names = list(table)
    name = names[column]
    table[name] = table[name].copy()
    table[name][row] += delta_scaled * np.max(np.abs(table[name]))
    lines = [",".join(names)]
    for i in range(len(table["zeta"])):
        lines.append(",".join(f"{table[n][i]:.17e}" for n in names))
    dest.write_text("\n".join(lines) + "\n")
    return name


def test_reference_passes_its_own_gate():
    ref = gate.read_csv(_ti_csv())
    assert gate.check_csv(_ti_csv(), ref) == []


@pytest.mark.parametrize("delta, trips", [(1e-8, False), (5e-7, False),
                                          (2e-6, True), (1e-3, True)])
def test_gate_trips_on_perturbed_csv(tmp_path, delta, trips):
    ref = gate.read_csv(_ti_csv())
    out = tmp_path / _ti_csv().name
    _write_perturbed(_ti_csv(), out, column=1, row=37, delta_scaled=delta)
    problems = gate.check_csv(out, ref)
    assert bool(problems) is trips, problems


def test_gate_trips_on_missing_file_shifted_grid_and_nan(tmp_path):
    ref = gate.read_csv(_ti_csv())
    assert gate.check_csv(tmp_path / "absent.csv", ref)
    shifted = dict(ref, zeta=ref["zeta"] * (1 + 1e-6))
    assert gate.check_table(shifted, ref, "shifted")
    bad = {k: v.copy() for k, v in ref.items()}
    bad[list(ref)[1]][5] = np.nan
    assert gate.check_table(bad, ref, "nan")
    assert gate.check_table({k: v[:-1] for k, v in ref.items()}, ref, "short")


def test_gate_scales_each_trace_by_its_own_maximum():
    ref = np.array([1.0, -1e-3, 0.0, 2.0])
    # an absolute error of 1e-7 on a trace whose largest value is 2: passes
    assert gate.scaled_error(ref + 1e-7, ref) <= gate.TOL
    assert gate.scaled_error(ref + 1e-5, ref) > gate.TOL


def test_nres_terms_gate_trips():
    # the stored reference's first point: im_term is 1e-3 of re_term, so
    # each term is checked against its own scale
    ref = json.loads((workloads.REFERENCE_DIR / "nres_axion.json").read_text())
    zeta, ref_im, ref_re = ref["points"][0]
    assert gate.check_terms(ref_im, ref_re, ref_im, ref_re, "p") == []
    assert gate.check_terms(ref_im * (1 + 1e-7), ref_re, ref_im, ref_re, "p") == []
    assert gate.check_terms(ref_im, ref_re * (1 + 3e-6), ref_im, ref_re, "p")
    problems = gate.check_terms(ref_im * (1 + 1e-4), ref_re, ref_im, ref_re, "p")
    assert problems and "im_term" in problems[0]


def test_inputs_depend_on_seed_only():
    assert workloads.nres_choice(7) == workloads.nres_choice(7)
    assert workloads.mirror_choice(7) == workloads.mirror_choice(7)
    seeds = range(20)
    assert len({tuple(workloads.nres_choice(s)) for s in seeds}) > 1
    assert len({tuple(workloads.mirror_choice(s).values()) for s in seeds}) > 1
    pool = workloads.nres_pool()
    for s in seeds:
        idx = workloads.nres_choice(s)
        # one point per stratum, strata in order
        assert [i // workloads.NRES_PER_STRATUM for i in idx] == list(
            range(workloads.NRES_STRATA))
        zetas = [pool[i] for i in idx]
        assert 0.01 <= min(zetas) and max(zetas) <= 10.0


def test_mirror_windows_match_scan_grids():
    master = workloads.mirror_master()
    n = workloads.MIRROR_PART
    last = workloads.MIRROR_OFFSETS - 1 + workloads.MIRROR_COUNT - n
    for j in (0, last):
        grid = np.geomspace(master[j], master[j + n - 1], n)
        assert np.max(np.abs(grid / master[j:j + n] - 1)) < 1e-12


def test_reference_speed_cancels_the_machine_speed():
    import run
    from probe import REFERENCE_S
    ops = [[1.0, 2.0], [3.0, 6.0], [1.1, 2.2]]  # the second pass ran 3x slower
    probes = [[0.5, 0.5, 0.5], [1.5, 1.5, 1.5], [0.5, 0.5, 0.5]]
    # per operation the median of (2, 2, 2.2) and (4, 4, 4.4)
    assert run._at_reference_speed(ops, probes) == pytest.approx(6.0 * REFERENCE_S)
    # an operation is divided by the mean of the probes on its two sides
    assert run._at_reference_speed([[3.0]], [[1.0, 2.0]]) == pytest.approx(2.0 * REFERENCE_S)


def test_union_length_merges_overlapping_children():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracer.union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert tracer.union_length([], 0, 1) == 0


def test_self_time_subtracts_parallel_children_once():
    # parent 1 [0, 10]; children 2 and 3 overlap on [2, 6]; grandchild 4
    spans = [
        (2, 1, "greens.real", 2.0, 5.0, {"neval": 10}),
        (4, 3, "media.reflection", 4.0, 5.0, {"nodes": 30}),
        (3, 1, "greens.real", 3.0, 6.0, {"neval": 20}),
        (1, 0, "scan.run_scan", 0.0, 10.0, {"points": 2, "bytes": 100}),
    ]
    table = tracer.layer_table(spans)
    assert table["scan.run_scan"]["self_s"] == pytest.approx(6.0)
    assert table["greens.real"]["self_s"] == pytest.approx(3.0 + 2.0)
    assert table["greens.real"]["neval"] == 30
    m = tracer.layer_metrics(spans)
    assert m["greens.real.calls"] == 2 and m["greens.real.ms_per_call"] == pytest.approx(3000)
    assert m["media.reflection.ns_per_node"] == pytest.approx(1e9 / 30)
    assert m["scan.points"] == 2 and m["scan.points_per_s"] == pytest.approx(0.2)


def test_nested_scan_counters_are_counted_once():
    spans = [
        (2, 1, "scan.run_scan", 1.0, 4.0, {"points": 400, "bytes": 10}),
        (1, 0, "scan.figure", 0.0, 5.0, {"points": 1200, "bytes": 50}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["scan.points"] == 1200 and m["scan.bytes_written"] == 50
    assert m["scan.self_s"] == pytest.approx(3.0 + 2.0)


def _import_cpshift():
    src = Path(__file__).resolve().parents[2] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cpshift
    return cpshift


def test_patched_tracer_counts_match_result_objects_and_restores():
    cpshift = _import_cpshift()
    from cpshift import atomics, greens, media
    before = (atomics.integrate, greens.integrate, atomics.greens_tensor,
              media.AxionMedium.__dict__["reflection"])
    tr = cpshift.canonical_transition("plus")
    axion = cpshift.AxionMedium(epsilon=16.0, theta=np.pi)
    t = tracer.Tracer()
    with t.patched():
        g = atomics.greens_tensor(axion, 1.0, tr.frequency)
        terms = atomics.nonresonant_shift_terms(tr, 1.0, cpshift.PerfectConductor())
    m = tracer.layer_metrics(t.take())
    assert (atomics.integrate, greens.integrate, atomics.greens_tensor,
            media.AxionMedium.__dict__["reflection"]) == before
    assert m["greens.real.calls"] == 1 and m["greens.real.neval"] == g.neval
    assert m["greens.imag.calls"] == 0
    assert m["atomics.nonresonant.neval"] == terms.neval
    # six k-segment integrals for the tensor plus the closed-form xi integral
    assert m["quadrature.integrate.calls"] == 7
    assert m["quadrature.integrate.neval"] == g.neval + terms.neval
    assert m["media.reflection.nodes"] == g.neval
    assert m["scan.points"] == 0


def test_patched_tracer_fails_on_a_missing_entry_point(monkeypatch):
    cpshift = _import_cpshift()
    from cpshift import atomics
    before = atomics.integrate  # wrapped before the missing attribute is met
    monkeypatch.delattr(atomics, "scattering_greens_numeric")
    t = tracer.Tracer()
    with pytest.raises(AttributeError):
        with t.patched():
            pass
    assert atomics.integrate is before


def test_run_fails_without_the_program(tmp_path):
    import shutil
    import subprocess
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "mirror_scan", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
