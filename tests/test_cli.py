import copy
import json
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from viscowave import build_mesh, rate_identity_residual
from viscowave.cli import (
    DEFAULTS,
    ConfigError,
    PRESETS,
    _format_table,
    _json_text,
    _strict,
    main,
    parse_config,
    profile_field,
    run_mms_ladder,
    run_scenario,
)


def _tiny_config(**overrides):
    cfg = {
        "domain": {"resolution": [16]},
        "stepping": {"dt": 2e-3, "t_end": 0.2, "record_every": 10},
        "initial": {"profile": "sine", "amplitude": 0.1},
        "analysis": {"constants": False, "decay": False},
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
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    msgs = "\n".join(exc.value.errors)
    assert "resolution" in msgs
    assert "stepping.dt" in msgs
    assert "sawtooth" in msgs
    assert "bogus" in msgs
    assert "k must exceed 2" in msgs
    assert len(exc.value.errors) >= 5


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
])
def test_non_finite_or_non_numeric_values_rejected(section, key, literal):
    # JSON text may spell NaN and Infinity; each must end in ConfigError
    # naming the key, not in an error or a NaN row later in the run
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
        parse_config(json.dumps({"stepping": {"storage": "auto", "stride": 10}}))
    msgs = " | ".join(exc.value.errors)
    assert "stepping.storage: removed" in msgs
    assert "stepping.stride: removed" in msgs
    assert sorted(DEFAULTS["stepping"]) == ["cfl_safety", "dt", "record_every", "t_end"]


def test_syntax_error_reports_location():
    with pytest.raises(ConfigError) as exc:
        parse_config("{bad json")
    assert any("syntax error" in e for e in exc.value.errors)


def test_config_round_trip():
    preset = PRESETS["powerlaw-inwell"]
    cfg = preset.parse()
    again = parse_config(cfg.to_json())
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
    assert (tmp_path / "zero" / "run_metadata.json").exists()
    assert not (tmp_path / "zero" / "abort.json").exists()


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
    assert [r[0] for r in rows] == [f"{i * 10 * 2e-3:.15g}" for i in range(len(rows))]
    _, res = rate_identity_residual(result.trajectory.reports)
    assert rows[0][-1] == rows[-1][-1] == "nan"
    assert [float(r[-1]) for r in rows[1:-1]] == [float(f"{v:.15g}") for v in res]


def _check_timings(meta):
    """The phase timings of run_metadata.json: every phase, none negative,
    and together within the run time (rounded to 1 ms)."""
    timings = meta["timings"]
    assert set(timings) == {"setup", "stepping", "analysis", "artifacts"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= meta["runtime_seconds"] + 1e-3


def test_full_scenario_writes_reports(tmp_path):
    cfg = parse_config(
        _tiny_config(
            stepping={"dt": 2e-3, "t_end": 4.0, "record_every": 10},
            analysis={"constants": True, "decay": True, "t_tail": 1.0},
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
        "energy_vs_time.dat",
        "logE_vs_phi.dat",
        "rho_vs_S.dat",
    ):
        assert (tmp_path / "full" / name).exists(), name
    assert result.hypothesis_report.passed
    assert result.stable_report.in_well
    assert result.decay_report.omega_max > 0
    meta = json.loads((tmp_path / "full" / "run_metadata.json").read_text())
    assert meta["config"]["stepping"]["t_end"] == 4.0
    assert "initial_boundary_residual" in meta
    _check_timings(meta)
    # exponential kernel: one exact term of [K u, u.K u, 1] rows
    assert meta["memory"]["n_terms"] == 1
    assert meta["memory"]["certified_rel_error"] == 0.0
    assert meta["memory"]["bytes_held"] > 0
    hyp = json.loads((tmp_path / "full" / "hypothesis_report.json").read_text())
    assert hyp["memory_expansion"] == {"n_terms": 1, "certified_rel_error": 0.0,
                                       "certification": "exact", "horizon": None}


def test_out_of_well_scenario_preserves_partial_outputs(tmp_path):
    preset = PRESETS["out-of-well"]
    raw = copy.deepcopy(preset.config)
    raw["analysis"]["constants"] = False
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
    # default t0; the run must still complete and record why decay analysis
    # was skipped
    cfg = parse_config(
        _tiny_config(
            stepping={"dt": 2e-3, "t_end": 1.0, "record_every": 10},
            analysis={"constants": False, "decay": True},
        )
    )
    result = run_scenario(cfg, out_dir=tmp_path / "short")
    assert result.aborted is None
    assert result.decay_report is None
    payload = json.loads((tmp_path / "short" / "decay_report.json").read_text())
    assert "skipped" in payload


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


@pytest.mark.parametrize("param, workers, expect", [
    ("stepping.dt=-1,0.0005", "2", "stepping.dt must be positive"),
    ("nosuch.key=1", "1", "'nosuch' is not a config section"),
    ("stepping.dt", "1", "section.key=v1,v2"),
    ("stepping.nosuch=1", "1", "stepping.nosuch: unknown key"),
    ("stepping.dt=abc", "1", "is not JSON"),
])
def test_sweep_rejects_bad_params_before_any_run(tmp_path, capsys, param, workers, expect):
    rc = main(["sweep", "--preset", "exp-inwell", "--param", param,
               "--out", str(tmp_path / "sweep"), "--workers", workers])
    assert rc == 2
    err = capsys.readouterr().err
    assert expect in err
    assert not (tmp_path / "sweep").exists()


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
    # with the default well constants on, the membership check sees the
    # overflow first; it must report the data outside the well
    cfg = parse_config(_tiny_config(physics={"b": 0}, initial={"amplitude": 1e90},
                                     analysis={"constants": True}))
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


@pytest.mark.parametrize("alpha, eps", [(800, 0.9), (1e300, 0.5)])
def test_overflowing_oscillatory_series_is_a_config_error(alpha, eps):
    text = json.dumps({"kernel": {"family": "oscillatory", "alpha": alpha, "eps": eps}})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any(e.startswith("kernel:") and "alpha*eps/2" in e for e in exc.value.errors)


def _run_with_config_file(tmp_path, **overrides):
    """(config path, artifact directory) of a completed run of that config
    with every report on."""
    path = tmp_path / "cfg.json"
    path.write_text(_tiny_config(**{
        "stepping": {"dt": 2e-3, "t_end": 4.0, "record_every": 10},
        "analysis": {"constants": True, "decay": True, "t_tail": 1.0}, **overrides,
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
    # the subcommand reads the energies back from the CSV's 15 significant
    # digits, so its figures match the run's to that rounding, not bit for bit
    artifact = _strict_artifacts(run_dir)["decay_report.json"]
    assert payload == pytest.approx(artifact, rel=1e-10)


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
    _, payload = _strict_stdout(capsys)
    artifact = _strict_artifacts(tmp_path / "run")["decay_report.json"]
    assert artifact["t_tail"] == 1.005
    assert payload == pytest.approx(artifact, rel=1e-10)


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


@pytest.mark.parametrize("case", ["aborted", "out-of-well", "missing"])
def test_decay_report_on_an_unusable_csv_exits_2(tmp_path, capsys, case):
    # an aborted run's header-only CSV, an energy that turns negative, and
    # no file: one line on stderr and exit status 2, not a traceback
    csv = tmp_path / case / "trajectory.csv"
    if case == "aborted":
        text = {"physics": {"b": 0}, "initial": {"amplitude": 1e90},
                "domain": {"resolution": [16]}}
        assert run_scenario(parse_config(json.dumps(text)), out_dir=csv.parent).aborted
    elif case == "out-of-well":
        raw = copy.deepcopy(PRESETS["out-of-well"].config)
        raw["analysis"]["constants"] = False
        assert run_scenario(parse_config(json.dumps(raw)), out_dir=csv.parent).aborted
    rc = main(["decay-report", "--preset", "exp-inwell", "--csv", str(csv)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("decay-report: ") and err.count("\n") == 1
    expect = {"aborted": "need at least two samples",
              "out-of-well": "energy samples must be nonnegative", "missing": "not found"}
    assert expect[case] in err


def test_one_pass_formatter_matches_per_value_format():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
              1e300, -1e300, 1.0 / 3.0, 0.1, 123456789012345678.0]
    table = np.array(values).reshape(3, 4)
    expect = "".join(",".join(f"{x:.15g}" for x in row) + "\n" for row in table.tolist())
    assert _format_table(table, ",") == expect
    assert _format_table(table[:0], ",") == ""


def test_run_subcommand_with_preset(tmp_path, capsys):
    raw = copy.deepcopy(PRESETS["mms-ladder"].config)
    cfg_path = tmp_path / "mms.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "mmsrun")])
    assert rc == 0
    assert (tmp_path / "mmsrun" / "mms_report.json").exists()
    report = json.loads((tmp_path / "mmsrun" / "mms_report.json").read_text())
    assert report["l2_error"] < 1e-5
    _check_timings(json.loads((tmp_path / "mmsrun" / "run_metadata.json").read_text()))
