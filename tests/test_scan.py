"""run_scan / figure: CSV contract, manifests, determinism, failure paths."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cpshift.atomics import (decay_rate, greens_tensor, nonresonant_shift,
                             nonresonant_shift_terms, resonant_shift)
from cpshift.config import ConfigError, ScanConfig
from cpshift.greens import numeric_greens
from cpshift.scan import FIGURE_NAMES, ScanError, _format_csv, figure, run_scan
from cpshift.media import (AxionMedium, PerfectConductor, PerfectNonreciprocalMirror,
                           PoleError, _AxionDifference)
from cpshift.quadrature import _K15_NODES, QuadratureConfig
from cpshift.units import canonical_transition, free_space_rate_formula

TR = canonical_transition("plus")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, data


def test_scan_csv_matches_library_values(tmp_path):
    cfg = ScanConfig(medium_kind="perfect_conductor", zeta_min=0.3, zeta_max=3.0,
                     count=6, name="demo")
    result = run_scan(cfg, tmp_path)
    header, data = read_csv(result.csv_path)
    assert header == ["zeta", "gamma_ratio", "shift_res_ratio", "shift_nres_ratio"]
    assert data.shape == (6, 4)
    assert np.allclose(data[:, 0], np.linspace(0.3, 3.0, 6))
    medium = PerfectConductor()
    for zeta, g, res, nres in data:
        # CSV keeps 12 significant digits; rebuild through the same formatting
        assert f"{g:.11e}" == f"{decay_rate(TR, zeta, medium):.11e}"
        assert f"{res:.11e}" == f"{resonant_shift(TR, zeta, medium):.11e}"
        assert f"{nres:.11e}" == f"{nonresonant_shift(TR, zeta, medium):.11e}"


def test_scan_quantity_subset_controls_columns(tmp_path):
    cfg = ScanConfig(medium_kind="nonreciprocal_mirror", zeta_min=0.5,
                     zeta_max=1.0, count=3, quantities=("rate",), name="rate_only")
    result = run_scan(cfg, tmp_path)
    header, data = read_csv(result.csv_path)
    assert header == ["zeta", "gamma_ratio"]
    assert data.shape == (3, 2)


def test_scan_manifest_contents(tmp_path):
    cfg = ScanConfig(medium_kind="axion", zeta_min=0.5, zeta_max=1.5, count=4,
                     epsilon=16.0, theta=math.pi, quantities=("rate",),
                     name="axion_demo")
    result = run_scan(cfg, tmp_path)
    manifest = json.loads(result.manifest_path.read_text())
    assert manifest["tool"] == "cpshift"
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    assert manifest["points"] == 4
    assert manifest["wall_time_s"] >= 0.0
    assert manifest["config"]["medium"] == "axion"
    assert manifest["config"]["epsilon"] == 16.0
    assert manifest["quadrature"]["rel_tol"] == 1e-9
    assert manifest["quad_error"]["max"] >= manifest["quad_error"]["mean"]
    assert manifest["neval"] > 0
    assert set(manifest["outputs"]) == {"axion_demo.csv", "axion_demo.manifest.json"}


def test_manifest_evaluation_count_shows_the_route(tmp_path):
    # the closed forms run no quadrature: every medium with a constant
    # reflection matrix reports 0 evaluations and 0 error; epsilon = 16
    # reports the sum over its points of the tensor and s-integral counts
    counts = {}
    for kind, epsilon in (("perfect_conductor", 1.0), ("nonreciprocal_mirror", 1.0),
                          ("axion", 1.0), ("axion", 16.0)):
        cfg = ScanConfig(medium_kind=kind, zeta_min=0.5, zeta_max=1.5, count=3,
                         epsilon=epsilon, name=f"{kind}_{epsilon:g}")
        result = run_scan(cfg, tmp_path)
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["neval"] == result.manifest.neval
        counts[cfg.name] = (manifest["neval"], manifest["quad_error"]["max"])
    medium = AxionMedium(epsilon=16.0)
    expected = sum(greens_tensor(medium, z, 1.0).neval
                   + nonresonant_shift_terms(TR, z, medium).neval
                   for z in (0.5, 1.0, 1.5))
    assert counts == {"perfect_conductor_1": (0, 0.0), "nonreciprocal_mirror_1": (0, 0.0),
                      "axion_1": (0, 0.0), "axion_16": (expected, counts["axion_16"][1])}
    assert counts["axion_16"][1] > 0


def test_failed_scan_still_writes_manifest(tmp_path):
    # every height needs more panels than a budget of 4
    cfg = ScanConfig(medium_kind="axion", epsilon=16.0, zeta_min=0.5, zeta_max=2.0,
                     count=2, quantities=("rate",), name="fail")
    with pytest.raises(ScanError) as excinfo:
        run_scan(cfg, tmp_path, QuadratureConfig(max_panels=4))
    assert excinfo.value.zeta is not None
    manifest = json.loads((tmp_path / "fail.manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "zeta" in manifest["error"]
    assert manifest["neval"] is None
    # the points and files of the jobs that completed: none
    assert manifest["points"] == 0 and manifest["outputs"] == ["fail.manifest.json"]
    assert not (tmp_path / "fail.csv").exists()


def test_scan_deterministic_csv(tmp_path):
    cfg = ScanConfig(medium_kind="axion", zeta_min=0.3, zeta_max=2.0, count=8,
                     epsilon=16.0, theta=math.pi, quantities=("rate", "resonant_shift"),
                     name="det")
    run_scan(cfg, tmp_path / "a")
    run_scan(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "det.csv").read_bytes() == \
        (tmp_path / "b" / "det.csv").read_bytes()


def test_mirror_sign_scans_negate_exactly(tmp_path):
    grids = {}
    for sign, tag in ((-1.0, "minus"), (1.0, "plus")):
        cfg = ScanConfig(medium_kind="nonreciprocal_mirror", zeta_min=0.2,
                         zeta_max=4.0, count=10, sign=sign,
                         quantities=("rate", "resonant_shift"), name=tag)
        run_scan(cfg, tmp_path)
        _, grids[tag] = read_csv(tmp_path / f"{tag}.csv")
    assert np.array_equal(grids["plus"][:, 1:], -grids["minus"][:, 1:])


def test_figure_names_and_unknown_rejected(tmp_path):
    assert FIGURE_NAMES == ("gamma_mirrors", "omega_mirrors", "loglog_nres",
                            "gamma_ti", "omega_ti")
    with pytest.raises(ConfigError):
        figure("gamma_everything", tmp_path)


def test_gamma_mirrors_figure_traces(tmp_path):
    outputs = figure("gamma_mirrors", tmp_path)
    assert "gamma_mirrors_perfect_conductor.csv" in outputs
    assert "gamma_mirrors_nonreciprocal_mirror.csv" in outputs
    assert "gamma_mirrors.manifest.json" in outputs
    _, data = read_csv(tmp_path / "gamma_mirrors_perfect_conductor.csv")
    assert data.shape == (400, 2)
    assert data[0, 0] == pytest.approx(0.05) and data[-1, 0] == pytest.approx(8.0)
    sample = data[::57]
    for zeta, g in sample:
        assert g == pytest.approx(decay_rate(TR, zeta, PerfectConductor()),
                                  rel=1e-10)
    manifest = json.loads((tmp_path / "gamma_mirrors.manifest.json").read_text())
    assert manifest["points"] == 800 and manifest["neval"] == 0


def test_loglog_figure_asymptote_slopes(tmp_path):
    figure("loglog_nres", tmp_path)
    slopes = {}
    for medium, regime in (("perfect_conductor", "retarded"),
                           ("perfect_conductor", "nonretarded"),
                           ("nonreciprocal_mirror", "retarded"),
                           ("nonreciprocal_mirror", "nonretarded")):
        _, data = read_csv(tmp_path / f"loglog_nres_{medium}_{regime}_asymptote.csv")
        x, y = np.log(data[:, 0]), np.log(np.abs(data[:, 1]))
        slopes[(medium, regime)] = np.polyfit(x, y, 1)[0]
    assert slopes[("perfect_conductor", "retarded")] == pytest.approx(-4.0, abs=1e-9)
    assert slopes[("nonreciprocal_mirror", "retarded")] == pytest.approx(-5.0, abs=1e-9)
    assert slopes[("perfect_conductor", "nonretarded")] == pytest.approx(-3.0, abs=1e-9)
    assert slopes[("nonreciprocal_mirror", "nonretarded")] == pytest.approx(-3.0, abs=1e-9)
    # full curves approach the matching asymptote at each end of the grid
    _, curve = read_csv(tmp_path / "loglog_nres_perfect_conductor.csv")
    _, ret = read_csv(tmp_path / "loglog_nres_perfect_conductor_retarded_asymptote.csv")
    assert curve[-1, 1] == pytest.approx(ret[-1, 1], rel=5e-3)
    _, nret = read_csv(tmp_path / "loglog_nres_perfect_conductor_nonretarded_asymptote.csv")
    assert curve[0, 1] == pytest.approx(nret[0, 1], rel=5e-3)


def test_omega_ti_figure_traces(tmp_path):
    outputs = figure("omega_ti", tmp_path)
    assert "omega_ti_pure_axion_theta_pi.csv" in outputs
    assert "omega_ti_pure_axion_theta_minus_pi.csv" in outputs
    assert "omega_ti_difference_eps16_theta_pi.csv" in outputs
    assert "omega_ti_difference_eps16_theta_minus_pi.csv" in outputs
    _, plus = read_csv(tmp_path / "omega_ti_pure_axion_theta_pi.csv")
    _, minus = read_csv(tmp_path / "omega_ti_pure_axion_theta_minus_pi.csv")
    # mirror images about zero up to the reciprocity-even Delta^2 admixture;
    # at the near edge (zeta = 0.05) the diagonal 1/z^3 channel outweighs the
    # cross channel roughly tenfold, so the defect peaks near 2*Delta*10
    scale = np.abs(plus[:, 1]).max()
    assert np.abs(plus[:, 1] + minus[:, 1]).max() <= 1e-1 * scale


@pytest.fixture(scope="module")
def figure_runs(tmp_path_factory):
    """Every figure written into a directory of its own: name -> (directory,
    the file names figure() returned)."""
    root = tmp_path_factory.mktemp("figures")
    return {name: (root / name, figure(name, root / name)) for name in FIGURE_NAMES}


def test_a_figure_writes_exactly_what_it_reports(figure_runs):
    points = {}
    for name, (out, outputs) in figure_runs.items():
        manifest = json.loads((out / f"{name}.manifest.json").read_text())
        assert outputs == manifest["outputs"], name
        assert outputs[-1] == f"{name}.manifest.json"
        assert sorted(outputs) == sorted(p.name for p in out.iterdir()), name
        points[name] = manifest["points"]
    assert points == {"gamma_mirrors": 800, "omega_mirrors": 1600, "loglog_nres": 722,
                      "gamma_ti": 1600, "omega_ti": 1600}


def test_figure_totals_are_the_sums_over_its_traces(figure_runs):
    # the pure-axion traces take the closed form (0 evaluations, 0 error);
    # both difference traces come from one quadrature of r(pi) - r(0) at
    # eps = 16, whose evaluations count once
    out, _ = figure_runs["gamma_ti"]
    manifest = json.loads((out / "gamma_ti.manifest.json").read_text())
    zetas = np.linspace(0.05, 8.0, 400)
    tensor = numeric_greens(zetas, 1.0, _AxionDifference(epsilon=16.0, theta=math.pi))
    assert manifest["points"] == 1600
    assert manifest["neval"] == int(tensor.neval.sum()) == 40_500
    assert manifest["quad_error"]["max"] == float(tensor.quad_error.max())


def test_minus_pi_difference_tensor_is_the_pi_one_with_xy_negated():
    # Delta enters ss and pp as Delta^2, sp and ps as -2 Delta: the figures
    # write the theta = -pi difference trace from the theta = pi tensor
    zetas = np.linspace(0.05, 8.0, 400)
    plus, minus = (numeric_greens(zetas, 1.0, _AxionDifference(epsilon=16.0, theta=theta))
                   for theta in (math.pi, -math.pi))
    for name in ("xx", "zz", "quad_error", "neval"):
        assert np.array_equal(getattr(minus, name), getattr(plus, name)), name
    assert np.array_equal(minus.xy, -plus.xy)


def test_a_failing_figure_leaves_one_manifest(tmp_path, monkeypatch):
    # the pure-axion traces (eps = 1) complete; the first difference trace
    # fails at its first height
    reflection = _AxionDifference.reflection

    def pole_at_eps16(self, omega, k_perp):
        if self.epsilon == 16.0:
            raise PoleError("test pole", owner=0)
        return reflection(self, omega, k_perp)

    monkeypatch.setattr(_AxionDifference, "reflection", pole_at_eps16)
    with pytest.raises(ScanError) as excinfo:
        figure("gamma_ti", tmp_path)
    assert excinfo.value.zeta == 0.05
    assert [p.name for p in tmp_path.glob("*.manifest.json")] == ["gamma_ti.manifest.json"]
    manifest = json.loads((tmp_path / "gamma_ti.manifest.json").read_text())
    assert manifest["status"] == "failed" and "zeta=0.05" in manifest["error"]
    assert manifest["points"] == 800 and manifest["neval"] is None
    assert manifest["outputs"] == ["gamma_ti_pure_axion_theta_pi.csv",
                                   "gamma_ti_pure_axion_theta_minus_pi.csv",
                                   "gamma_ti.manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(manifest["outputs"])


@given(kind=st.sampled_from(["perfect_conductor", "nonreciprocal_mirror", "axion"]),
       handedness=st.sampled_from(["plus", "minus"]),
       sign=st.sampled_from([-1.0, 1.0]),
       axion=st.sampled_from([(16.0, math.pi), (1.0, -math.pi), (4.0, 0.5)]),
       zeta_min=st.floats(0.1, 4.0), span=st.floats(0.05, 3.0),
       count=st.integers(2, 4), spacing=st.sampled_from(["linear", "log"]))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batched_scan_equals_point_calls_bit_for_bit(tmp_path, kind, handedness, sign,
                                                     axion, zeta_min, span, count,
                                                     spacing):
    epsilon, theta = axion if kind == "axion" else (1.0, math.pi)
    cfg = ScanConfig(medium_kind=kind, zeta_min=zeta_min, zeta_max=zeta_min + span,
                     count=count, spacing=spacing, handedness=handedness,
                     sign=sign if kind == "nonreciprocal_mirror" else -1.0,
                     epsilon=epsilon, theta=theta, name="bits")
    result = run_scan(cfg, tmp_path)
    medium = cfg.build_medium()
    tr = canonical_transition(handedness)
    gamma0 = free_space_rate_formula(tr)
    for zeta, row in zip(result.zetas, result.values):
        z = float(zeta)  # scaled units: c = w = 1
        assert row[0] == decay_rate(tr, z, medium) / gamma0
        assert row[1] == resonant_shift(tr, z, medium) / gamma0
        assert row[2] == nonresonant_shift_terms(tr, z, medium).total / gamma0


def test_failing_scan_names_a_grid_zeta(tmp_path):
    # every point needs more than the whole panel budget; the lowest zeta
    # ends up running alone and fails first
    cfg = ScanConfig(medium_kind="axion", epsilon=16.0, zeta_min=0.5,
                     zeta_max=2.0, count=16, quantities=("rate",), name="fail16")
    with pytest.raises(ScanError) as excinfo:
        run_scan(cfg, tmp_path, QuadratureConfig(max_panels=4))
    assert excinfo.value.zeta in cfg.grid().tolist()
    manifest = json.loads((tmp_path / "fail16.manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert f"zeta={excinfo.value.zeta:.6g}" in manifest["error"]


def test_pole_in_batched_scan_names_its_zeta(tmp_path, monkeypatch):
    # at zeta >= 1/2 (omega = 1) height zeta integrates over x in (0, 1] with
    # k_perp = 1 + i u, u = (1 - x)/(2 zeta x), so the node x = (3 + s)/4
    # of the first round's start panel [1/2, 1] (s the smallest positive
    # Kronrod node) sits at a |k_perp| of the third grid point alone: a
    # stand-in pole there must name zeta_2, not the first or any other owner
    reflection = AxionMedium.reflection
    cfg = ScanConfig(medium_kind="axion", epsilon=16.0, zeta_min=0.6, zeta_max=4.0,
                     count=4, spacing="log", quantities=("rate",), name="pole")
    zeta = cfg.grid()[2]
    x = 0.75 + 0.25 * _K15_NODES[8]
    k_pole = abs(1.0 + 1j * (1.0 - x) / (2.0 * zeta * x))

    def pole_of_one_height(self, omega, k_perp):
        hit = np.flatnonzero(np.abs(np.abs(np.asarray(k_perp)) / k_pole - 1.0) < 1e-12)
        if hit.size:
            raise PoleError("test pole", owner=int(hit[0]))
        return reflection(self, omega, k_perp)

    monkeypatch.setattr(AxionMedium, "reflection", pole_of_one_height)
    with pytest.raises(ScanError) as excinfo:
        run_scan(cfg, tmp_path)
    assert excinfo.value.zeta == zeta
    assert f"PoleError at zeta={zeta:.6g}" in str(excinfo.value)


_CELLS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 2.2e-308,
     1e300, -1e300, 1e-300, -1e-300]))


@given(data=st.data(), rows=st.integers(1, 60), columns=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_csv_text_is_one_f_string_per_cell(data, rows, columns):
    cells = np.array(data.draw(st.lists(_CELLS, min_size=rows * (columns + 1),
                                        max_size=rows * (columns + 1))))
    zetas, values = cells[:rows], cells[rows:].reshape(rows, columns)
    names = tuple(f"q{j}" for j in range(columns))
    lines = [",".join(("zeta",) + names)]
    for zeta, row in zip(zetas, values):
        lines.append(",".join([f"{zeta:.11e}"] + [f"{v:.11e}" for v in row]))
    assert _format_csv(names, zetas, values) == "\n".join(lines) + "\n"
