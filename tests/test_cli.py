import copy
import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from viscowave import (
    SampledEnergy,
    StepperConfig,
    build_decay_report,
    build_mesh,
    cli,
    rate_identity_residual,
)
from viscowave.kernels import PowerLawRate
from viscowave.decay import default_weighted_t0
from viscowave.cli import (
    DEFAULTS,
    ConfigError,
    PRESETS,
    WRITE_BLOCK_ROWS,
    _format_table,
    _json_text,
    _strict,
    _write_table,
    main,
    parse_config,
    profile_field,
    run_mms_ladder,
    run_mms_level,
    run_scenario,
)


def _tiny_config(**overrides):
    cfg = {
        "domain": {"resolution": [16]},
        "stepping": {"dt": 2e-3, "t_end": 0.2, "record_every": 10},
        "initial": {"profile": "sine", "amplitude": 0.1},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return json.dumps(cfg)


def test_minimal_config_gets_defaults():
    cfg = parse_config("{}")
    assert cfg.domain.resolution == tuple(DEFAULTS["domain"]["resolution"])
    assert cfg.physics.a == DEFAULTS["physics"]["a"]
    assert cfg.stepping.dt == DEFAULTS["stepping"]["dt"]
    assert cfg.seed == DEFAULTS["seed"]


def test_zero_dt_names_the_field():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"stepping": {"dt": 0}}))
    assert any("stepping.dt must be positive" in e for e in exc.value.errors)


@pytest.mark.parametrize("text", ["[]", "[{}]", "1.5", "null", '"dt"'])
def test_a_config_that_is_not_an_object_is_refused(text):
    # valid JSON of another type is outside input, refused before any key
    # is read
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == ["top level must be an object"]


def test_kernel_mass_violation_cites_h2():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"kernel": {"alpha": 0.05}}))  # tail 20 > a = 2
    assert any("(H2)" in e for e in exc.value.errors)


def test_all_errors_reported_at_once():
    bad = {
        "domain": {"resolution": [1]},
        "stepping": {"dt": -1},
        "initial": {"profile": "sawtooth"},
        "bogus": 1,
        "physics": {"k_exp": 1.5},
        "seed": True,
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    msgs = "\n".join(exc.value.errors)
    assert "resolution" in msgs
    assert "stepping.dt" in msgs
    assert "sawtooth" in msgs
    assert "bogus" in msgs
    assert "k must exceed 2" in msgs
    assert "seed must be an integer, got True" in msgs
    assert len(exc.value.errors) >= 6


@pytest.mark.parametrize("section, key, literal", [
    ("stepping", "t_end", "NaN"),
    ("stepping", "t_end", "Infinity"),
    ("stepping", "dt", "1e400"),
    ("physics", "k_exp", "NaN"),
    ("physics", "a", "NaN"),
    ("physics", "b", "NaN"),
    ("physics", "q_c", "-Infinity"),
    ("kernel", "alpha", "NaN"),
    ("domain", "extent", "[NaN]"),
    ("initial", "amplitude", "NaN"),
    ("initial", "amplitude", '"x"'),
    ("initial", "y0", "[0.1]"),
    ("physics", "source_enabled", '"false"'),
    ("analysis", "constants", '"no"'),
    ("stepping", "record_every", "2.7"),
    ("domain", "resolution", "[16.9]"),
])
def test_non_finite_or_non_numeric_values_rejected(section, key, literal):
    # JSON text may spell NaN and Infinity, and a value of the wrong JSON
    # type must not be read as another ("false" as true, 2.7 as 2); each
    # must end in ConfigError naming the key, not in a silently different
    # run, an error or a NaN row later in the run
    text = '{"%s": {"%s": %s}}' % (section, key, literal)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(f"{section}.{key}" in e for e in exc.value.errors)


def _entries(node):
    """(container, key) of every dict entry and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    out = []
    for key, val in items:
        out.append((node, key))
        if isinstance(val, (dict, list)):
            out.extend(_entries(val))
    return out


def _mutate(raw: dict, rng: random.Random) -> None:
    """One seeded mutation of a config, in place: a dropped key or item, a
    value of another type, NaN or an infinity, a negative or huge value, or
    the value wrapped in nested lists."""
    container, key = rng.choice(_entries(raw))
    old = container[key]
    kind = rng.randrange(6)
    if kind == 0:
        del container[key]
    elif kind == 1:
        container[key] = rng.choice(["x", "", True, False, None, 7, 0.5, [], {}, {"k": 1}])
    elif kind == 2:
        container[key] = rng.choice([math.nan, math.inf, -math.inf])
    elif kind == 3:
        container[key] = -old if isinstance(old, (int, float)) else -1
    elif kind == 4:
        container[key] = rng.choice([1e308, -1e308, 10**400, 2**64, 1e-320])
    else:
        container[key] = rng.choice([[old], [[old]], [old, [old]]])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_seeded_config_mutations_raise_only_config_error(name):
    rng = random.Random(f"mutate-{name}")
    outcomes = set()
    for _ in range(300):
        raw = copy.deepcopy(PRESETS[name].config)
        for _ in range(rng.randint(1, 3)):
            _mutate(raw, rng)
        text = json.dumps(raw)
        try:
            parse_config(text)
            outcomes.add("parsed")
        except ConfigError:
            outcomes.add("rejected")
        except Exception as exc:  # noqa: BLE001 - the test reports any other escape
            pytest.fail(f"{type(exc).__name__}: {exc} from {text}")
    assert outcomes == {"parsed", "rejected"}


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"stepping": {"dt_max": 0.1}}))
    assert any("stepping.dt_max" in e for e in exc.value.errors)


def test_removed_stepping_keys_named():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"stepping": {"storage": "auto", "stride": 10,
                                              "cfl_safety": 0.9},
                                 "analysis": {"t0": 1.0, "hypothesis_horizon": 20.0,
                                              "constants": True, "decay": True},
                                 "mode": "mms", "tolerances": {"c_id": 1.2}}))
    msgs = " | ".join(exc.value.errors)
    assert "stepping.storage: removed" in msgs
    assert "stepping.stride: removed" in msgs
    assert "analysis.t0: removed" in msgs
    assert "analysis.hypothesis_horizon: removed" in msgs
    assert "mode: removed" in msgs
    assert "tolerances: removed" in msgs
    # each with the reason it went
    assert ("stepping.cfl_safety: removed; the CFL margin is a constant of the stepper"
            in exc.value.errors)
    assert ("analysis.constants: removed; every run computes the well constants and "
            "checks the initial data against them" in exc.value.errors)
    assert ("analysis.decay: removed; every run that completes t_end > 0 writes a decay "
            "report or the reason it has none" in exc.value.errors)
    assert len(exc.value.errors) == 9
    assert sorted(DEFAULTS["stepping"]) == ["dt", "record_every", "t_end"]
    assert sorted(DEFAULTS["analysis"]) == ["t_tail"]
    assert "mode" not in DEFAULTS and "tolerances" not in DEFAULTS
    assert [f.name for f in dataclasses.fields(StepperConfig)] == [
        "dt", "t_end", "record_every", "forcing"]
    assert [f.name for f in dataclasses.fields(cli.AnalysisOptions)] == ["t_tail"]


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as exc:
        parse_config("{bad json")
    assert any("syntax error" in e for e in exc.value.errors)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_config_round_trip(name):
    preset = PRESETS[name]
    cfg = preset.parse()
    assert cfg.to_dict() == preset.config
    again = parse_config(_json_text(cfg.to_dict()))
    assert again == cfg


def test_all_presets_parse():
    for name, preset in PRESETS.items():
        cfg = preset.parse()
        assert cfg.stepping.dt > 0, name
    assert {"exp-inwell", "powerlaw-inwell", "oscillatory-inwell",
            "out-of-well", "mms-ladder"} <= set(PRESETS)


def test_profiles_vanish_on_dirichlet_nodes():
    cfg = parse_config("{}")
    mesh = build_mesh(cfg.domain)
    for name in ("linear", "sine", "bump"):
        u = profile_field(name, mesh, 0.7)
        assert np.all(u[mesh.gamma0_nodes] == 0.0)
        assert np.abs(u).max() == pytest.approx(0.7, rel=1e-2)
    from viscowave import DomainSpec

    spec2 = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (8, 8))
    mesh2 = build_mesh(spec2)
    for name in ("linear", "sine", "bump"):
        u = profile_field(name, mesh2, 1.0)
        assert np.all(u[mesh2.gamma0_nodes] == 0.0)
        assert np.abs(u).max() > 0.0


def test_profile_field_rejects_an_unknown_profile_on_either_dimension():
    # config validation refuses an unknown name before a run; a direct call
    # reaches the per-axis factor's own raise, which names the valid ones
    from viscowave import DomainSpec

    meshes = [build_mesh(parse_config("{}").domain),
              build_mesh(DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (4, 4)))]
    for mesh in meshes:
        with pytest.raises(ValueError, match=r"unknown profile 'gauss'; valid: .*'bump'"):
            profile_field("gauss", mesh, 1.0)


# each profile's factor on an axis, by the axis's pinned ends: none, the
# high end alone, or both
AXIS_FACTORS = {
    "linear": {"none": np.ones_like, "high": lambda z: 1.0 - z,
               "both": lambda z: 1.0 - np.abs(2.0 * z - 1.0)},
    "sine": {"none": np.ones_like, "high": lambda z: np.cos(0.5 * np.pi * z),
             "both": lambda z: np.sin(np.pi * z)},
    "bump": {"none": np.ones_like, "high": lambda z: 16.0 * z**2 * (1.0 - z) ** 2,
             "both": lambda z: 16.0 * z**2 * (1.0 - z) ** 2},
}


@pytest.mark.parametrize("faces,pinned", [
    (("left",), ("high",)),
    (("left",), ("high", "both")),
    (("left", "right"), ("none", "both")),
    (("left", "right", "bottom"), ("none", "high")),
], ids=["1d-left", "2d-left", "2d-left-right", "2d-left-right-bottom"])
@pytest.mark.parametrize("name", sorted(AXIS_FACTORS))
def test_profiles_on_unpinned_and_high_pinned_axes_take_their_closed_forms(name, faces,
                                                                           pinned):
    # acoustic left faces leave the x axis pinned at its high end or not at
    # all; the field is the product of the axes' factors, zero on Gamma_0
    from viscowave import DomainSpec

    dim = len(pinned)
    spec = DomainSpec(dim, (1.5, 0.8)[:dim], frozenset(faces), (8, 6)[:dim])
    mesh = build_mesh(spec)
    u = profile_field(name, mesh, 0.7)
    want = 0.7 * np.ones(mesh.n_nodes)
    for axis, ends in enumerate(pinned):
        want *= AXIS_FACTORS[name][ends](mesh.nodes[:, axis] / spec.extent[axis])
    np.testing.assert_allclose(u, want, rtol=1e-15, atol=1e-15)
    assert np.all(u[mesh.gamma0_nodes] == 0.0)
    assert np.abs(u).max() > 0.0


def test_zero_data_scenario_artifacts(tmp_path):
    cfg = parse_config(_tiny_config(initial={"profile": "zero", "amplitude": 0.0}))
    result = run_scenario(cfg, out_dir=tmp_path / "zero")
    assert result.aborted is None
    csv = (tmp_path / "zero" / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("t,E,")
    for line in csv[1:]:
        fields = [float(v) for v in line.split(",")[1:12]]
        assert all(v == 0.0 for v in fields)
    assert (tmp_path / "zero" / "hypothesis_report.json").exists()
    assert not (tmp_path / "zero" / "abort.json").exists()
    _check_timings(json.loads((tmp_path / "zero" / "run_metadata.json").read_text()))


def test_scenario_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(_tiny_config())
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_csv_times_and_residuals_by_record(tmp_path):
    cfg = parse_config(_tiny_config())
    result = run_scenario(cfg, out_dir=tmp_path / "csv")
    rows = [line.split(",") for line in
            (tmp_path / "csv" / "trajectory.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [f"{i * 10 * 2e-3:.17g}" for i in range(len(rows))]
    _, res = rate_identity_residual(result.trajectory.reports)
    assert rows[0][-1] == rows[-1][-1] == "nan"
    assert [float(r[-1]) for r in rows[1:-1]] == res.tolist()


def _check_timings(meta):
    """The phase timings of run_metadata.json: every phase, none negative,
    and together within the run time (rounded to 1 ms); and the split of
    set-up: its four steps in the order they run, none negative, and
    together within set-up."""
    timings = meta["timings"]
    assert set(timings) == {"setup", "stepping", "analysis", "artifacts"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= meta["runtime_seconds"] + 1e-3
    steps = meta["setup_timings"]
    assert list(steps) == ["1_mesh_and_assembly", "2_hypotheses", "3_well_constants",
                           "4_membership"]
    assert all(v >= 0.0 for v in steps.values())
    assert sum(steps.values()) <= timings["setup"]


def test_setup_timings_give_each_step_its_own_time(tmp_path, monkeypatch):
    # a clock that moves only inside the set-up steps, by a different power
    # of ten in each, so that each entry must read its own step alone
    clock = [0.0]
    monkeypatch.setattr(cli, "perf_counter", lambda: clock[0])

    def advancing(fn, seconds):
        def wrapped(*args, **kwargs):
            clock[0] += seconds
            return fn(*args, **kwargs)
        return wrapped

    for name, seconds in (("assemble", 1.0), ("_hypothesis_report", 10.0),
                          ("compute_well_constants", 100.0),
                          ("check_initial_membership", 1000.0)):
        monkeypatch.setattr(cli, name, advancing(getattr(cli, name), seconds))
    run_scenario(parse_config(_tiny_config()), tmp_path / "run")
    meta = json.loads((tmp_path / "run" / "run_metadata.json").read_text())
    assert meta["setup_timings"] == {"1_mesh_and_assembly": 1.0, "2_hypotheses": 10.0,
                                     "3_well_constants": 100.0, "4_membership": 1000.0}
    assert meta["timings"]["setup"] == 1111.0


def test_full_scenario_writes_reports(tmp_path):
    cfg = parse_config(
        _tiny_config(
            stepping={"dt": 2e-3, "t_end": 4.0, "record_every": 10},
            analysis={"t_tail": 1.0},
        )
    )
    result = run_scenario(cfg, out_dir=tmp_path / "full")
    for name in (
        "trajectory.csv",
        "hypothesis_report.json",
        "well_constants.json",
        "stable_set.json",
        "decay_report.json",
        "run_metadata.json",
        "logE_vs_phi.dat",
        "rho_vs_S.dat",
    ):
        assert (tmp_path / "full" / name).exists(), name
    assert result.hypothesis_report.passed
    assert result.stable_report.in_well
    assert result.decay_report.omega_max > 0
    # rho_vs_S.dat is the decay report's own full-horizon profile
    kernel = cfg.build_kernel()
    _, (S, rho) = build_decay_report(SampledEnergy.from_trajectory(result.trajectory, kernel),
                                     t_tail=1.0, t0=default_weighted_t0(kernel))
    plot = np.loadtxt(tmp_path / "full" / "rho_vs_S.dat")
    assert np.array_equal(plot, np.column_stack([S, rho]))
    assert result.decay_report.rho_max == rho.max()
    meta = json.loads((tmp_path / "full" / "run_metadata.json").read_text())
    assert meta["config"]["stepping"]["t_end"] == 4.0
    assert meta["tolerances"] == {"c_id": cfg.c_id, "c_energy": cfg.c_energy}
    # the exact CFL eigenvalue, without the stepper's margins
    assert meta["lam_max"] == cli.assemble(build_mesh(cfg.domain)).lam_max
    assert "lam_max_unit" not in meta
    assert "initial_boundary_residual" in meta
    _check_timings(meta)
    # exponential kernel: one exact term of [K u, u.K u, 1] rows
    assert meta["memory"]["n_terms"] == 1
    assert meta["memory"]["certified_rel_error"] == 0.0
    assert meta["memory"]["bytes_held"] > 0
    hyp = json.loads((tmp_path / "full" / "hypothesis_report.json").read_text())
    assert hyp["memory_expansion"] == {"n_terms": 1, "certified_rel_error": 0.0,
                                       "certification": "exact", "horizon": None}


@pytest.fixture
def power_law_expansions(monkeypatch):
    """The horizons of the power-law expansions built while the test runs."""
    built = []
    exp_sum = PowerLawRate.exp_sum

    def spy(rate, horizon):
        built.append(horizon)
        return exp_sum(rate, horizon)

    monkeypatch.setattr(PowerLawRate, "exp_sum", spy)
    return built


def test_power_law_reports_describe_the_expansion_the_run_steps_with(tmp_path,
                                                                     power_law_expansions):
    built = power_law_expansions
    cfg = parse_config(_tiny_config(physics={"a": 3.0},
                                    kernel={"family": "power_law", "alpha": 2.0},
                                    stepping={"dt": 2e-3, "t_end": 3.0, "record_every": 50}))
    run_scenario(cfg, out_dir=tmp_path / "run")
    assert built == [3.0]  # one expansion, on the run's horizon
    hyp = json.loads((tmp_path / "run" / "hypothesis_report.json").read_text())
    meta = json.loads((tmp_path / "run" / "run_metadata.json").read_text())
    assert hyp["horizon"] == 20.0  # the hypotheses are still checked on max(20, 2 t_end)
    expansion, memory = hyp["memory_expansion"], meta["memory"]
    assert expansion["horizon"] == 3.0 and expansion["certification"] == "grid"
    assert expansion["n_terms"] == memory["n_terms"]
    assert expansion["certified_rel_error"] == memory["certified_rel_error"]


def test_constants_and_decay_report_build_no_run_expansion(tmp_path, capsys,
                                                            power_law_expansions):
    # the well constants read l alone, the decay report the rate and the
    # closed-form partial mass: neither needs the expansion the run steps with
    cfg_path, run_dir = _run_with_config_file(tmp_path, physics={"a": 3.0},
                                              kernel={"family": "power_law", "alpha": 2.0})
    power_law_expansions.clear()
    assert main(["constants", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == (run_dir / "well_constants.json").read_text()
    assert main(["decay-report", "--config", str(cfg_path),
                 "--csv", str(run_dir / "trajectory.csv")]) == 0
    assert capsys.readouterr().out == (run_dir / "decay_report.json").read_text()
    assert power_law_expansions == []


def test_rerun_into_a_directory_leaves_no_artifact_of_the_earlier_run(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    # an aborted run, then a completed one
    aborting = parse_config(_tiny_config(physics={"b": 0.0}, initial={"amplitude": 1e90}))
    assert run_scenario(aborting, out_dir=out).aborted is not None
    assert (out / "abort.json").exists()
    assert run_scenario(parse_config(_tiny_config()), out_dir=out).aborted is None
    assert not (out / "abort.json").exists()
    # a run with a decay report and its plot data, then an aborted one,
    # which has none of them
    reports = {"stepping": {"dt": 2e-3, "t_end": 4.0, "record_every": 10},
               "analysis": {"t_tail": 1.0}}
    assert run_scenario(parse_config(_tiny_config(**reports)), out_dir=out).decay_report
    assert all((out / name).exists()
               for name in ["decay_report.json", "rho_vs_S.dat", "logE_vs_phi.dat"])
    assert run_scenario(aborting, out_dir=out).aborted is not None
    assert sorted(p.name for p in out.iterdir()) == [
        "abort.json", "hypothesis_report.json", "notes.txt", "run_metadata.json",
        "stable_set.json", "trajectory.csv", "well_constants.json"]
    assert (out / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "constants"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # numpy's generators refuse a negative seed; the config refuses it first,
    # before any artifact is written
    path = tmp_path / "cfg.json"
    path.write_text(_tiny_config(seed=-1, output_dir=str(tmp_path / "run")))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed must be nonnegative, got -1" in err
    assert not (tmp_path / "run").exists()


def test_out_of_well_scenario_preserves_partial_outputs(tmp_path):
    preset = PRESETS["out-of-well"]
    raw = copy.deepcopy(preset.config)
    raw["stepping"]["t_end"] = 5.0
    cfg = parse_config(json.dumps(raw))
    result = run_scenario(cfg, out_dir=tmp_path / "oow")
    if result.aborted is not None:
        assert (tmp_path / "oow" / "abort.json").exists()
        marker = json.loads((tmp_path / "oow" / "abort.json").read_text())
        assert "blow-up" in marker["reason"] or "CFL" in marker["reason"]
        # the abort time is a whole number of steps, not a running sum
        n = round(marker["time"] / raw["stepping"]["dt"])
        assert marker["time"] == n * raw["stepping"]["dt"]
    assert (tmp_path / "oow" / "trajectory.csv").exists()


def test_short_horizon_skips_decay_gracefully(tmp_path):
    # T = 1 is below what the half-horizon stability diagnostics need for the
    # default t0; the run must still complete, with its well constants and
    # membership check, and record why decay analysis was skipped
    cfg = parse_config(_tiny_config(stepping={"dt": 2e-3, "t_end": 1.0, "record_every": 10}))
    result = run_scenario(cfg, out_dir=tmp_path / "short")
    assert result.aborted is None
    assert result.decay_report is None
    artifacts = _strict_artifacts(tmp_path / "short")
    assert list(artifacts["decay_report.json"]) == ["skipped"]
    assert "must lie below half the horizon" in artifacts["decay_report.json"]["skipped"]
    assert artifacts["well_constants.json"]["lambda1"] == result.constants.lambda1 > 0
    assert artifacts["stable_set.json"]["in_well"] is result.stable_report.in_well is True
    assert not (tmp_path / "short" / "rho_vs_S.dat").exists()


def test_run_shorter_than_one_record_interval_completes(tmp_path, capsys):
    # one record only: too few samples for the decay analysis, which is
    # skipped with the reason instead of ending the run in a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": {"resolution": [16]},
                                    "stepping": {"dt": 1e-3, "t_end": 0.005,
                                                 "record_every": 10}}))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 0
    assert "completed" in capsys.readouterr().out
    lines = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    artifacts = _strict_artifacts(tmp_path / "run")
    assert artifacts["decay_report.json"] == {"skipped": "need at least two samples"}
    assert not (tmp_path / "run" / "logE_vs_phi.dat").exists()


def test_mms_ladder_two_levels():
    ladder = run_mms_ladder(PRESETS["mms-ladder"].parse(), levels=2)
    assert len(ladder["errors"]) == 2
    assert ladder["ratios"][0] > 3.5


def test_mms_ladder_preset_run_writes_every_report(tmp_path):
    # the preset's run computes the well constants like any other; its
    # horizon of 1 is too short for the decay report, which says why
    assert main(["run", "--preset", "mms-ladder", "--out", str(tmp_path / "run")]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "decay_report.json", "hypothesis_report.json", "logE_vs_phi.dat",
        "run_metadata.json", "stable_set.json", "trajectory.csv", "well_constants.json"]
    artifacts = _strict_artifacts(tmp_path / "run")
    assert list(artifacts["decay_report.json"]) == ["skipped"]
    assert artifacts["stable_set.json"]["in_well"] is True
    _check_timings(artifacts["run_metadata.json"])


def test_sweep_creates_isolated_directories(tmp_path, capsys):
    rc = main([
        "sweep",
        "--preset", "exp-inwell",
        "--param", "initial.amplitude=0.05,0.1,0.2",
        "--out", str(tmp_path / "sweep"),
        "--workers", "1",
    ])
    assert rc == 0
    dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert len(dirs) == 3
    out = capsys.readouterr().out
    assert out.count("ok") == 3


def test_sweep_takes_list_values_as_json(tmp_path, capsys):
    # the values are one JSON array, so a 2D resolution sweep runs one job
    # per [nx, ny] in a directory whose name has no bracket or comma
    config = tmp_path / "square.json"
    config.write_text(_tiny_config(
        domain={"dimension": 2, "extent": [1.0, 1.0], "gamma1_faces": ["right"],
                "resolution": [8, 8]},
        stepping={"dt": 2e-3, "t_end": 0.02, "record_every": 5}))
    rc = main(["sweep", "--config", str(config), "--param",
               "domain.resolution=[8,8], [16, 16]", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert dirs == ["sweep_00_resolution_8_8", "sweep_01_resolution_16_16"]
    for name, resolution in zip(dirs, ([8, 8], [16, 16])):
        meta = json.loads((tmp_path / "sweep" / name / "run_metadata.json").read_text())
        assert meta["config"]["domain"]["resolution"] == resolution
    assert capsys.readouterr().out.count("ok") == 2


def test_sweep_names_scalar_values_by_their_text(tmp_path):
    jobs = cli._sweep_jobs(PRESETS["exp-inwell"].parse(),
                           'initial.amplitude=0.05,1e-3, 0.2', tmp_path)
    assert [Path(out).name for _, out in jobs] == [
        "sweep_00_amplitude_0.05", "sweep_01_amplitude_1e-3", "sweep_02_amplitude_0.2"]
    assert [cfg.initial.amplitude for cfg, _ in jobs] == [0.05, 1e-3, 0.2]
    jobs = cli._sweep_jobs(PRESETS["exp-inwell"].parse(), 'initial.profile="sine","zero"',
                           tmp_path)
    assert [Path(out).name for _, out in jobs] == ["sweep_00_profile_sine",
                                                   "sweep_01_profile_zero"]


@pytest.mark.parametrize("param, workers, expect", [
    ("stepping.dt=-1,0.0005", "2", "stepping.dt must be positive"),
    ("nosuch.key=1", "1", "'nosuch' is not a config section"),
    ("stepping.dt", "1", "section.key=v1,v2"),
    ("stepping.nosuch=1", "1", "stepping.nosuch: unknown key"),
    ("stepping.dt=abc", "1", "is not JSON"),
    ("stepping.dt=", "1", "is not JSON"),
    ("domain.resolution=[8,8],[16", "1", "is not JSON"),
    ("initial.amplitude=0.05,0.1", "0", "--workers must be at least 1"),
])
def test_sweep_rejects_bad_params_before_any_run(tmp_path, capsys, param, workers, expect):
    rc = main(["sweep", "--preset", "exp-inwell", "--param", param,
               "--out", str(tmp_path / "sweep"), "--workers", workers])
    assert rc == 2
    err = capsys.readouterr().err
    assert expect in err
    assert not (tmp_path / "sweep").exists()


def test_sweep_pool_gets_no_more_workers_than_jobs(tmp_path, capsys, monkeypatch):
    pools = []

    class RecordingPool:
        # stands in for the process pool: records its size, starts nothing
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [(out_dir, True) for _, out_dir in jobs]

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rc = main(["sweep", "--preset", "exp-inwell", "--param", "initial.amplitude=0.05,0.1",
               "--out", str(tmp_path / "sweep"), "--workers", "8"])
    assert rc == 0
    assert pools == [2]
    assert capsys.readouterr().out.count("ok") == 2


def test_overflowing_energy_aborts_with_header_only_csv(tmp_path):
    cfg = parse_config(_tiny_config(physics={"b": 0.0}, initial={"amplitude": 1e90}))
    result = run_scenario(cfg, out_dir=tmp_path / "ovf")
    assert result.aborted is not None
    assert result.aborted.reason.startswith("blow-up")
    marker = json.loads((tmp_path / "ovf" / "abort.json").read_text())
    assert marker == {"reason": result.aborted.reason, "time": 0.0}
    lines = (tmp_path / "ovf" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("t,E,")


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict_artifacts(directory) -> dict:
    """Every JSON artifact of a run, parsed as strict JSON (no NaN or Infinity)."""
    return {path.name: json.loads(path.read_text(), parse_constant=_reject)
            for path in sorted(directory.glob("*.json"))}


@dataclass(frozen=True)
class _Verdict:
    passed: bool
    margin: float


@dataclass(frozen=True)
class _Report:
    verdict: _Verdict
    samples: tuple
    omega: float


def test_strict_reads_a_dataclass_as_its_fields():
    report = _Report(_Verdict(True, -math.inf), (1.0, math.nan, 2), math.inf)
    clean, token = _strict(report)
    assert token is None
    assert clean == {
        "verdict": {"passed": True, "margin": None, "margin_nonfinite": "-inf"},
        "samples": [1.0, None, 2], "samples_nonfinite": {"1": "nan"},
        "omega": None, "omega_nonfinite": "inf",
    }
    assert json.loads(_json_text(report), parse_constant=_reject) == clean


def test_overflowing_kirchhoff_coefficient_aborts(tmp_path):
    # |grad u|^2 ~ 1e160 is finite, but its square overflows a float
    cfg = parse_config(_tiny_config(physics={"kappa": 2}, initial={"amplitude": 1e80}))
    result = run_scenario(cfg, out_dir=tmp_path / "ovf")
    assert result.aborted is not None
    assert result.aborted.reason.startswith("blow-up")
    artifacts = _strict_artifacts(tmp_path / "ovf")
    assert artifacts["abort.json"] == {"reason": result.aborted.reason, "time": 0.0}
    meta = artifacts["run_metadata.json"]
    assert meta["initial_boundary_residual"] is None
    assert meta["initial_boundary_residual_nonfinite"] == "inf"


def test_overflowing_initial_energy_is_out_of_the_well(tmp_path):
    # the membership check sees the overflow first; it must report the data
    # outside the well
    cfg = parse_config(_tiny_config(physics={"b": 0}, initial={"amplitude": 1e90}))
    result = run_scenario(cfg, out_dir=tmp_path / "ovf")
    assert result.stable_report is not None and not result.stable_report.in_well
    stable = _strict_artifacts(tmp_path / "ovf")["stable_set.json"]
    assert not stable["in_well"]
    # b = 0 drops the Kirchhoff term, so gamma0 = sqrt(l |grad u|^2) stays
    # finite although |grad u|^4 overflows; int |u|^4 overflows, E0 = -inf
    assert stable["gamma0"] == pytest.approx(1.11e90, rel=1e-2)
    assert stable["E0"] is None and stable["E0_nonfinite"] == "-inf"
    assert result.aborted is not None
    assert result.aborted.reason == "blow-up or instability: non-finite energy"
    assert (tmp_path / "ovf" / "abort.json").exists()


@pytest.mark.parametrize("family", ["constant", "power_law"])
def test_eps_outside_the_oscillatory_family_is_a_config_error(family):
    # make_rate reads eps for the oscillatory rate alone: elsewhere it would
    # run as if eps were 0
    text = json.dumps({"kernel": {"family": family, "alpha": 2.0, "eps": 0.5}})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [f"kernel.eps shapes the oscillatory rate alone; it must be 0 "
                                f"for the {family!r} family, got 0.5"]


@pytest.mark.parametrize("alpha, eps", [(800, 0.9), (1e300, 0.5)])
def test_overflowing_oscillatory_series_is_a_config_error(alpha, eps):
    text = json.dumps({"kernel": {"family": "oscillatory", "alpha": alpha, "eps": eps}})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(e.startswith("kernel:") and "alpha*eps/2" in e for e in exc.value.errors)


def _run_with_config_file(tmp_path, **overrides):
    """(config path, artifact directory) of a completed run of that config,
    long enough for a decay report."""
    path = tmp_path / "cfg.json"
    path.write_text(_tiny_config(**{
        "stepping": {"dt": 2e-3, "t_end": 4.0, "record_every": 10},
        "analysis": {"t_tail": 1.0}, **overrides,
    }))
    run_scenario(parse_config(path.read_text()), out_dir=tmp_path / "run")
    return path, tmp_path / "run"


def _strict_stdout(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out, parse_constant=_reject)


def test_check_kernel_subcommand(tmp_path, capsys):
    cfg_path, run_dir = _run_with_config_file(tmp_path)
    rc = main(["check-kernel", "--config", str(cfg_path)])
    assert rc == 0
    out, report = _strict_stdout(capsys)
    assert report["passed"] is True
    assert out == (run_dir / "hypothesis_report.json").read_text()


def test_constants_subcommand(tmp_path, capsys):
    cfg_path, run_dir = _run_with_config_file(tmp_path)
    rc = main(["constants", "--config", str(cfg_path)])
    assert rc == 0
    out, payload = _strict_stdout(capsys)
    assert payload["lambda1"] > 0
    assert payload["d1"] > 0
    assert out == (run_dir / "well_constants.json").read_text()


def test_decay_report_subcommand(tmp_path, capsys):
    cfg_path, run_dir = _run_with_config_file(tmp_path)
    rc = main([
        "decay-report",
        "--config", str(cfg_path),
        "--csv", str(run_dir / "trajectory.csv"),
    ])
    assert rc == 0
    out, payload = _strict_stdout(capsys)
    assert payload["omega_max"] > 0
    # the CSV's 17 significant digits read back to the run's own energies
    assert out == (run_dir / "decay_report.json").read_text()


def test_decay_report_subcommand_takes_the_run_default_tail_time(tmp_path, capsys):
    # t_end is not a multiple of record_every * dt, so the last record sits
    # at t = 4.0 before t_end = 4.02; both take t_tail = t_end / 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": {"resolution": [16]},
                                    "stepping": {"dt": 0.01, "t_end": 4.02, "record_every": 4}}))
    run_scenario(parse_config(cfg_path.read_text()), out_dir=tmp_path / "run")
    rc = main(["decay-report", "--config", str(cfg_path),
               "--csv", str(tmp_path / "run" / "trajectory.csv")])
    assert rc == 0
    out, payload = _strict_stdout(capsys)
    assert payload["t_tail"] == 1.005
    assert out == (tmp_path / "run" / "decay_report.json").read_text()


def test_decay_report_subcommand_on_zero_data_is_strict_json(tmp_path, capsys):
    # E = 0 throughout: omega_max is infinite, and the CSV holds exact zeros
    cfg_path, run_dir = _run_with_config_file(tmp_path, initial={"amplitude": 0.0})
    rc = main(["decay-report", "--config", str(cfg_path),
               "--csv", str(run_dir / "trajectory.csv")])
    assert rc == 0
    out, payload = _strict_stdout(capsys)
    assert payload["trivial"] is True
    assert payload["omega_max"] is None and payload["omega_max_nonfinite"] == "inf"
    assert out == (run_dir / "decay_report.json").read_text()


def _short_exp_run(tmp_path):
    """(config path, artifact directory) of the exp-inwell preset cut to
    t_end = 2 with t_tail = 0.5."""
    raw = copy.deepcopy(PRESETS["exp-inwell"].config)
    raw["domain"]["resolution"] = [16]
    raw["stepping"]["t_end"] = 2.0
    raw["analysis"]["t_tail"] = 0.5
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    result = run_scenario(parse_config(path.read_text()), out_dir=tmp_path / "exp")
    assert result.decay_report is not None
    return path, tmp_path / "exp"


def test_decay_report_reproduces_the_artifact_of_a_short_exp_run(tmp_path, capsys):
    cfg_path, run_dir = _short_exp_run(tmp_path)
    rc = main(["decay-report", "--config", str(cfg_path),
               "--csv", str(run_dir / "trajectory.csv")])
    assert rc == 0
    out, payload = _strict_stdout(capsys)
    assert payload["t_tail"] == 0.5 and payload["omega_max"] > 0
    assert out == (run_dir / "decay_report.json").read_text()


@pytest.mark.parametrize("case", ["aborted", "out-of-well", "missing", "nan", "inf"])
def test_decay_report_on_an_unusable_csv_exits_2(tmp_path, capsys, case):
    # an aborted run's header-only CSV, an energy that turns negative, no
    # file, and one energy cell edited to nan or inf: one line on stderr and
    # exit status 2, not a traceback, a skipped sample or a null omega
    csv = tmp_path / case / "trajectory.csv"
    if case in ("nan", "inf"):
        _, run_dir = _short_exp_run(tmp_path)
        lines = (run_dir / "trajectory.csv").read_text().splitlines(keepends=True)
        assert lines[0].split(",")[1] == "E"
        cells = lines[40].split(",")
        cells[1] = case
        lines[40] = ",".join(cells)
        csv.parent.mkdir()
        csv.write_text("".join(lines))
    elif case == "aborted":
        text = {"physics": {"b": 0}, "initial": {"amplitude": 1e90},
                "domain": {"resolution": [16]}}
        assert run_scenario(parse_config(json.dumps(text)), out_dir=csv.parent).aborted
    elif case == "out-of-well":
        raw = copy.deepcopy(PRESETS["out-of-well"].config)
        assert run_scenario(parse_config(json.dumps(raw)), out_dir=csv.parent).aborted
    rc = main(["decay-report", "--preset", "exp-inwell", "--csv", str(csv)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("decay-report: ") and err.count("\n") == 1
    expect = {"aborted": "need at least two samples",
              "out-of-well": "energy samples must be nonnegative", "missing": "not found",
              "nan": "energy samples must be finite", "inf": "energy samples must be finite"}
    assert expect[case] in err


def test_one_pass_formatter_matches_per_value_format():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
              1e300, -1e300, 1.0 / 3.0, 0.1, 123456789012345678.0]
    table = np.array(values).reshape(3, 4)
    text = _format_table(table, ",")
    assert text == "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist())
    assert _format_table(table[:0], ",") == ""
    # 17 significant digits read back to the same floats
    back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    assert np.array_equal(back, table, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(table))


@pytest.mark.parametrize("n_rows", [0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                                    WRITE_BLOCK_ROWS + 1])
def test_block_writer_matches_the_one_pass_text(tmp_path, n_rows):
    # the table is formatted a block of rows at a time; the file holds the
    # header and the one-pass text of the whole table, byte for byte
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    if n_rows:
        table[0, :] = math.nan, -math.inf, -0.0
    path = tmp_path / "table.csv"
    _write_table(path, "a,b,c\n", table, ",")
    assert path.read_bytes() == ("a,b,c\n" + _format_table(table, ",")).encode()


def test_mms_subcommand_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "mms.json"
    cfg_path.write_text(json.dumps(PRESETS["mms-ladder"].config))
    rc = main(["mms", "--config", str(cfg_path), "--levels", "1",
               "--out", str(tmp_path / "ladder.json")])
    assert rc == 0
    out, ladder = _strict_stdout(capsys)
    assert out == (tmp_path / "ladder.json").read_text()
    assert len(ladder["levels"]) == 1
    assert ladder["levels"][0]["l2_error"] == run_mms_level(PRESETS["mms-ladder"].parse())["l2_error"]


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_mms_with_fewer_than_one_level_exits_2_with_one_line(capsys, levels):
    rc = main(["mms", "--preset", "mms-ladder", "--levels", levels])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"mms: levels must be at least 1, got {levels}\n"


@pytest.mark.parametrize("flags", [
    ["--config", "cfg.json", "--preset", "exp-inwell"],
    [],
    ["--preset", "no-such-preset"],
])
def test_config_source_usage_errors_exit_2(tmp_path, capsys, flags):
    # exactly one of --config and --preset, and a preset that exists
    (tmp_path / "cfg.json").write_text(_tiny_config())
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        main(["constants", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["run", "constants", "check-kernel", "mms", "sweep"])
@pytest.mark.parametrize("case", ["missing", "directory", "binary"])
def test_unreadable_config_file_exits_2_with_one_line(tmp_path, capsys, command, case):
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    elif case == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    extra = {"sweep": ["--param", "initial.amplitude=0.1"]}.get(command, [])
    rc = main([command, "--config", str(path), *extra])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith(f"{command}: cannot read --config: ") and err.count("\n") == 1


@pytest.mark.parametrize("domain", [
    {"dimension": 2, "extent": [1.0, 1.0], "gamma1_faces": ["right", "top"], "resolution": [4, 4]},
    {"gamma1_faces": ["left"]},
])
def test_mms_on_an_unsupported_domain_exits_2_with_one_line(tmp_path, capsys, domain):
    raw = copy.deepcopy(PRESETS["mms-ladder"].config)
    raw["domain"].update(domain)
    cfg_path = tmp_path / "mms.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main(["mms", "--config", str(cfg_path), "--levels", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == "mms: the shipped manufactured case needs the acoustic face on the right alone\n"
    assert err.count("\n") == 1
