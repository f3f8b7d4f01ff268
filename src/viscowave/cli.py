"""Configuration, scenario orchestration and artifact persistence.

A run is described by a JSON config with sections ``domain``, ``physics``,
``kernel``, ``initial``, ``stepping``, ``analysis`` plus ``mode``,
``output_dir``, ``seed`` and ``tolerances``.  Unknown keys are rejected and
validation reports every problem at once, not just the first.  Initial data
come from a small library of named closed-form profiles so every scenario
has hand-checkable provenance.

``run_scenario`` writes, per scenario directory:

  trajectory.csv          t, energy components, gamma_fn, norms, y, residual
  hypothesis_report.json  kernel/boundary hypothesis verdicts
  well_constants.json     embedding/trace/B, lambda1, d1 (optional)
  stable_set.json         initial membership check (optional)
  decay_report.json       envelope fit + weighted-integral profile (optional)
  run_metadata.json       versions, tolerances, seed, memory diagnostics,
                          phase timings
  energy_vs_time.dat, logE_vs_phi.dat, rho_vs_S.dat   (plot data)
  abort.json              marker, only when the run aborted

Reruns of the same config produce byte-identical CSV output.  All
acceptance tolerances are config data with the documented defaults below.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .assembly import PhysicalParams, assemble, pin_gamma0
from .decay import (
    DecayReport,
    SampledEnergy,
    build_decay_report,
    default_weighted_t0,
    weighted_integral_check,
)
from .energy import rate_identity_residual
from .geometry import DomainSpec, Mesh, build_mesh
from .kernels import (
    BoundaryCoefficients,
    HypothesisReport,
    RATE_FAMILIES,
    RelaxationKernel,
    build_kernel,
    make_rate,
    validate_hypotheses,
)
from .stableset import StableSetReport, WellConstants, check_initial_membership, compute_well_constants
from .stepper import (
    SimulationAbort,
    StepperConfig,
    Trajectory,
    build_manufactured_case,
    linear_profile_solution,
    run,
)

# Frozen after one calibration run of the reference scenarios: the energy
# identity residual must stay below c_id * (dt^2 + h^2) * E(0), and energy
# may rise between consecutive records by at most c_energy * (dt^2 + h^2)
# * E(0).  Measured on the exponential in-well scenario: residual/scale
# 0.59 at both (64, 1e-3) and (128, 5e-4); rises never positive on any
# reference scenario.
DEFAULT_TOLERANCES = {"c_id": 1.2, "c_energy": 1.0}

PROFILES = ("zero", "linear", "sine", "bump")

DEFAULTS: dict = {
    "domain": {"dimension": 1, "extent": [1.0], "gamma1_faces": ["right"], "resolution": [64]},
    "physics": {
        "a": 2.0,
        "b": 1.0,
        "kappa": 1.0,
        "k_exp": 4.0,
        "p_c": 1.0,
        "q_c": 1.0,
        "source_enabled": True,
    },
    "kernel": {"family": "constant", "alpha": 1.0, "eps": 0.0, "g0": 1.0},
    "initial": {
        "profile": "sine",
        "amplitude": 0.1,
        "velocity_profile": "zero",
        "velocity_amplitude": 0.0,
        "y0": 0.0,
    },
    "stepping": {
        "dt": 1e-3,
        "t_end": 10.0,
        "record_every": 10,
        "cfl_safety": 0.9,
    },
    "analysis": {"constants": True, "decay": True, "t_tail": None, "t0": None,
                 "hypothesis_horizon": None},
    "mode": "simulate",
    "output_dir": "viscowave-out",
    "seed": 2024,
    "tolerances": dict(DEFAULT_TOLERANCES),
}

# Keys that earlier versions accepted, rejected with the reason they went.
REMOVED_KEYS = {
    ("stepping", "storage"): "removed; every kernel uses the one exact "
                             "sum-of-exponentials memory recursion",
    ("stepping", "stride"): "removed; the memory recursion keeps no snapshots to thin out",
}


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class AnalysisOptions:
    constants: bool = True
    decay: bool = True
    t_tail: float | None = None
    t0: float | None = None
    hypothesis_horizon: float | None = None


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario description (kernel built lazily)."""

    domain: DomainSpec
    physics: PhysicalParams
    kernel_family: str
    kernel_alpha: float
    kernel_eps: float
    kernel_g0: float
    profile: str
    amplitude: float
    velocity_profile: str
    velocity_amplitude: float
    y0: float
    stepping: StepperConfig
    analysis: AnalysisOptions
    mode: str
    output_dir: str
    seed: int
    c_id: float
    c_energy: float

    def build_kernel(self) -> RelaxationKernel:
        rate = make_rate(self.kernel_family, self.kernel_alpha, self.kernel_eps)
        return build_kernel(rate, self.kernel_g0, self.physics.a)

    def to_dict(self) -> dict:
        return {
            "domain": {
                "dimension": self.domain.dimension,
                "extent": list(self.domain.extent),
                "gamma1_faces": sorted(self.domain.gamma1_faces),
                "resolution": list(self.domain.resolution),
            },
            "physics": {
                "a": self.physics.a,
                "b": self.physics.b,
                "kappa": self.physics.kappa,
                "k_exp": self.physics.k_exp,
                "p_c": self.physics.p_c,
                "q_c": self.physics.q_c,
                "source_enabled": self.physics.source_enabled,
            },
            "kernel": {
                "family": self.kernel_family,
                "alpha": self.kernel_alpha,
                "eps": self.kernel_eps,
                "g0": self.kernel_g0,
            },
            "initial": {
                "profile": self.profile,
                "amplitude": self.amplitude,
                "velocity_profile": self.velocity_profile,
                "velocity_amplitude": self.velocity_amplitude,
                "y0": self.y0,
            },
            "stepping": {
                "dt": self.stepping.dt,
                "t_end": self.stepping.t_end,
                "record_every": self.stepping.record_every,
                "cfl_safety": self.stepping.cfl_safety,
            },
            "analysis": {
                "constants": self.analysis.constants,
                "decay": self.analysis.decay,
                "t_tail": self.analysis.t_tail,
                "t0": self.analysis.t0,
                "hypothesis_horizon": self.analysis.hypothesis_horizon,
            },
            "mode": self.mode,
            "output_dir": self.output_dir,
            "seed": self.seed,
            "tolerances": {"c_id": self.c_id, "c_energy": self.c_energy},
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict())


def _finite(val) -> bool:
    """False for NaN, an infinity or an int beyond float range, alone or in a
    list (JSON text may spell NaN, Infinity or 1e400)."""
    if isinstance(val, list):
        return all(map(_finite, val))
    try:
        return not isinstance(val, (int, float)) or math.isfinite(val)
    except OverflowError:
        return False


def _merge_section(raw: dict, section: str, errors: list[str]) -> dict:
    """Defaults overlaid with the given keys; a rejected key keeps its default."""
    merged = copy.deepcopy(DEFAULTS[section])
    given = raw.get(section, {})
    if not isinstance(given, dict):
        errors.append(f"{section}: expected an object, got {type(given).__name__}")
        return merged
    for key, val in given.items():
        if (section, key) in REMOVED_KEYS:
            errors.append(f"{section}.{key}: {REMOVED_KEYS[section, key]}")
        elif key not in merged:
            errors.append(f"{section}.{key}: unknown key")
        elif not _finite(val):
            errors.append(f"{section}.{key}: must be finite, got {val!r}")
        else:
            merged[key] = val
    return merged


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config, reporting all errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be an object"])

    errors: list[str] = []
    for key in raw:
        if key not in DEFAULTS:
            errors.append(f"{key}: unknown top-level key")

    dom = _merge_section(raw, "domain", errors)
    phy = _merge_section(raw, "physics", errors)
    ker = _merge_section(raw, "kernel", errors)
    ini = _merge_section(raw, "initial", errors)
    stp = _merge_section(raw, "stepping", errors)
    ana = _merge_section(raw, "analysis", errors)
    tol = _merge_section(raw, "tolerances", errors)

    domain = None
    try:
        domain = DomainSpec(
            dimension=dom["dimension"],
            extent=tuple(dom["extent"]),
            gamma1_faces=frozenset(dom["gamma1_faces"]),
            resolution=tuple(dom["resolution"]),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"domain: {exc}")

    physics = None
    try:
        physics = PhysicalParams(
            a=float(phy["a"]),
            b=float(phy["b"]),
            kappa=float(phy["kappa"]),
            k_exp=float(phy["k_exp"]),
            p_c=float(phy["p_c"]),
            q_c=float(phy["q_c"]),
            source_enabled=bool(phy["source_enabled"]),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"physics: {exc}")

    if ker["family"] not in RATE_FAMILIES:
        errors.append(f"kernel.family must be one of {RATE_FAMILIES}, got {ker['family']!r}")
    elif physics is not None:
        try:
            rate = make_rate(ker["family"], float(ker["alpha"]), float(ker["eps"]))
            build_kernel(rate, float(ker["g0"]), physics.a)
        except (ValueError, TypeError) as exc:
            errors.append(f"kernel: {exc}")

    if ini["profile"] not in PROFILES:
        errors.append(f"initial.profile must be one of {PROFILES}, got {ini['profile']!r}")
    if ini["velocity_profile"] not in PROFILES:
        errors.append(
            f"initial.velocity_profile must be one of {PROFILES}, got {ini['velocity_profile']!r}"
        )
    for key in ("amplitude", "velocity_amplitude", "y0"):
        if not isinstance(ini[key], (int, float)):
            errors.append(f"initial.{key} must be a number, got {ini[key]!r}")

    stepping = None
    if not (isinstance(stp["dt"], (int, float)) and stp["dt"] > 0):
        errors.append("stepping.dt must be positive")
    else:
        try:
            stepping = StepperConfig(
                dt=float(stp["dt"]),
                t_end=float(stp["t_end"]),
                record_every=int(stp["record_every"]),
                cfl_safety=float(stp["cfl_safety"]),
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"stepping: {exc}")

    for key in ("t_tail", "t0", "hypothesis_horizon"):
        if ana[key] is not None and not (
            isinstance(ana[key], (int, float)) and ana[key] > 0
        ):
            errors.append(f"analysis.{key} must be positive or null")

    mode = raw.get("mode", DEFAULTS["mode"])
    if mode not in ("simulate", "mms"):
        errors.append(f"mode must be 'simulate' or 'mms', got {mode!r}")

    for key in ("c_id", "c_energy"):
        if not (isinstance(tol[key], (int, float)) and tol[key] > 0):
            errors.append(f"tolerances.{key} must be positive")

    seed = raw.get("seed", DEFAULTS["seed"])
    if not isinstance(seed, int):
        errors.append(f"seed must be an integer, got {seed!r}")

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        domain=domain,
        physics=physics,
        kernel_family=ker["family"],
        kernel_alpha=float(ker["alpha"]),
        kernel_eps=float(ker["eps"]),
        kernel_g0=float(ker["g0"]),
        profile=ini["profile"],
        amplitude=float(ini["amplitude"]),
        velocity_profile=ini["velocity_profile"],
        velocity_amplitude=float(ini["velocity_amplitude"]),
        y0=float(ini["y0"]),
        stepping=stepping,
        analysis=AnalysisOptions(
            constants=bool(ana["constants"]),
            decay=bool(ana["decay"]),
            t_tail=ana["t_tail"],
            t0=ana["t0"],
            hypothesis_horizon=ana["hypothesis_horizon"],
        ),
        mode=mode,
        output_dir=str(raw.get("output_dir", DEFAULTS["output_dir"])),
        seed=seed,
        c_id=float(tol["c_id"]),
        c_energy=float(tol["c_energy"]),
    )


# ----------------------------------------------------------------------
# initial-data profiles
# ----------------------------------------------------------------------


def _axis_factor(name: str, zeta: np.ndarray, lo_pinned: bool, hi_pinned: bool) -> np.ndarray:
    if name == "zero":
        return np.zeros_like(zeta)
    if name == "linear":
        if lo_pinned and hi_pinned:
            return 1.0 - np.abs(2.0 * zeta - 1.0)  # tent, still piecewise linear
        if lo_pinned:
            return zeta
        if hi_pinned:
            return 1.0 - zeta
        return np.ones_like(zeta)
    if name == "sine":
        if lo_pinned and hi_pinned:
            return np.sin(np.pi * zeta)
        if lo_pinned:
            return np.sin(0.5 * np.pi * zeta)
        if hi_pinned:
            return np.cos(0.5 * np.pi * zeta)
        return np.ones_like(zeta)
    if name == "bump":
        if lo_pinned or hi_pinned:
            return 16.0 * zeta**2 * (1.0 - zeta) ** 2
        return np.ones_like(zeta)
    raise ValueError(f"unknown profile '{name}'; valid: {PROFILES}")


def profile_field(name: str, mesh: Mesh, amplitude: float) -> np.ndarray:
    """Nodal values of a named closed-form profile, vanishing on the
    Dirichlet faces by construction."""
    spec = mesh.spec
    gamma0 = spec.gamma0_faces
    if spec.dimension == 1:
        zeta = mesh.nodes[:, 0] / spec.extent[0]
        vals = _axis_factor(name, zeta, "left" in gamma0, "right" in gamma0)
    else:
        zx = mesh.nodes[:, 0] / spec.extent[0]
        zy = mesh.nodes[:, 1] / spec.extent[1]
        vals = _axis_factor(name, zx, "left" in gamma0, "right" in gamma0) * _axis_factor(
            name, zy, "bottom" in gamma0, "top" in gamma0
        )
    return pin_gamma0(mesh, amplitude * vals)


def initial_data(config: RunConfig, mesh: Mesh):
    u0 = profile_field(config.profile, mesh, config.amplitude)
    u1 = profile_field(config.velocity_profile, mesh, config.velocity_amplitude)
    y0 = np.full(len(mesh.gamma1_nodes), config.y0)
    return u0, u1, y0


# ----------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------


def _format_table(table: np.ndarray, sep: str) -> str:
    """Each row of a 2D float table as one line, each value as ``%.15g``
    (the same text as ``f"{x:.15g}"``), formatted in one pass."""
    n_rows, n_cols = table.shape
    line = sep.join(["%.15g"] * n_cols) + "\n"
    return (line * n_rows) % tuple(table.ravel().tolist())


def write_trajectory_csv(path: Path, traj: Trajectory, mesh: Mesh) -> None:
    n_y = len(mesh.gamma1_nodes)
    header = (
        ["t", "E", "E_kinetic", "E_elastic", "E_kirchhoff", "E_boundary", "E_memory",
         "E_source", "gamma_fn", "u_l2", "grad_u_l2"]
        + [f"y_{i}" for i in range(n_y)]
        + ["eprime_residual"]
    )
    reps = traj.reports
    energy = np.array(
        [(r.t, r.total, r.kinetic, r.elastic, r.kirchhoff, r.boundary, r.memory,
          r.source, r.gamma_fn, r.l2_sq, r.grad_sq) for r in reps], dtype=float,
    ).reshape(len(reps), 11)
    energy[:, 9:] = np.sqrt(np.maximum(energy[:, 9:], 0.0))  # u_l2, grad_u_l2
    ys = np.array(traj.ys, dtype=float).reshape(len(reps), n_y)
    # the central difference has a residual at every record but the first
    # and the last
    residual = np.full((len(reps), 1), np.nan)
    if len(reps) >= 3:
        residual[1:-1, 0] = rate_identity_residual(reps)[1]
    table = np.hstack([energy, ys, residual])
    path.write_text(",".join(header) + "\n" + _format_table(table, ","))


def _strict(value):
    """(JSON-safe copy of ``value``, tokens of the non-finite floats it nulled).

    A dataclass instance is read as the dict of its fields, so a report's
    fields are its JSON schema.  A non-finite float becomes None with the
    token "nan", "inf" or "-inf"; a dict entry with a token gains a sibling
    ``<key>_nonfinite`` holding it, and a list's token maps each such index
    to the token of its item.
    """
    if is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, float) and not math.isfinite(value):
        return None, "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out[key], token = _strict(item)
            if token is not None:
                out[f"{key}_nonfinite"] = token
        return out, None
    if isinstance(value, (list, tuple)):
        pairs = [_strict(item) for item in value]
        tokens = {str(i): token for i, (_, token) in enumerate(pairs) if token is not None}
        return [item for item, _ in pairs], tokens or None
    return value, None


def _json_text(payload) -> str:
    """Strict JSON (RFC 8259) of a dict or a report dataclass, the text of
    every JSON artifact and of every subcommand's JSON output: non-finite
    floats are written as null plus a ``_nonfinite`` token, and any that
    slip past raise instead of writing NaN or Infinity."""
    clean, _ = _strict(payload)
    return json.dumps(clean, indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n")


def _write_columns(path: Path, cols: list[np.ndarray]) -> None:
    path.write_text(_format_table(np.column_stack(cols), " "))


# ----------------------------------------------------------------------
# scenario orchestration
# ----------------------------------------------------------------------


@dataclass
class ScenarioResult:
    config: RunConfig
    out_dir: Path
    trajectory: Trajectory | None = None
    constants: WellConstants | None = None
    stable_report: StableSetReport | None = None
    hypothesis_report: HypothesisReport | None = None
    decay_report: DecayReport | None = None
    mms_error: float | None = None
    aborted: object | None = None


def run_scenario(config: RunConfig, out_dir: str | Path | None = None) -> ScenarioResult:
    """Execute one validated scenario and persist every artifact."""
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    marks = [perf_counter()]  # the start and the end of each of PHASES

    mesh = build_mesh(config.domain)
    params = config.physics
    kernel = config.build_kernel()
    ops = assemble(mesh)
    result = ScenarioResult(config=config, out_dir=out)

    hyp = _hypothesis_report(config, kernel)
    result.hypothesis_report = hyp
    _write_json(out / "hypothesis_report.json", hyp)

    if config.mode == "mms":
        marks.append(perf_counter())
        err = run_mms_level(config, mesh, ops)
        result.mms_error = err["l2_error"]
        marks += [perf_counter()] * 2  # stepping ends; there is no analysis phase
        _write_json(out / "mms_report.json", err)
        marks.append(perf_counter())
        _write_json(out / "run_metadata.json", _metadata(config, ops, None, marks))
        return result

    u0, u1, y0 = initial_data(config, mesh)

    if config.analysis.constants:
        constants = compute_well_constants(mesh, ops, params, kernel, seed=config.seed)
        result.constants = constants
        _write_json(out / "well_constants.json", constants)
        stable = check_initial_membership(u0, u1, y0, constants, ops, params, kernel)
        result.stable_report = stable
        _write_json(out / "stable_set.json", stable)
    marks.append(perf_counter())

    aborted = None
    try:
        traj = run(u0, u1, y0, ops, kernel, params, config.stepping)
    except SimulationAbort as ab:
        traj = ab.trajectory
        aborted = ab.info
    result.trajectory = traj
    result.aborted = aborted
    marks.append(perf_counter())

    sampled = decay_json = prof = None
    if aborted is None and config.analysis.decay and config.stepping.t_end > 0:
        t0, t_tail = _decay_times(config, kernel)
        try:
            sampled = SampledEnergy.from_trajectory(traj, kernel)
            report = build_decay_report(sampled, t_tail=t_tail, t0=t0)
        except ValueError as exc:
            # fewer than two records, or a horizon too short for the
            # stability diagnostics: record why instead of discarding the
            # completed run
            decay_json = {"skipped": str(exc)}
        else:
            result.decay_report = decay_json = report
            prof = weighted_integral_check(sampled, t0)
    # initial boundary-flux compatibility diagnostic
    boundary_residual = None
    g1 = mesh.gamma1_nodes
    if len(g1):
        ku0 = ops.stiffness @ u0
        y_t0 = -(u1[g1] + params.q_c * y0) / params.p_c
        m0 = params.kirchhoff_coefficient(float(u0 @ ku0))
        res0 = m0 * ku0[g1] / mesh.gamma1_weights - y_t0
        boundary_residual = float(np.max(np.abs(res0)))
    marks.append(perf_counter())

    if aborted is not None:
        _write_json(out / "abort.json", {"reason": aborted.reason, "time": aborted.time})
    write_trajectory_csv(out / "trajectory.csv", traj, mesh)
    if traj.n_records:
        Es = np.array([r.total for r in traj.reports])
        _write_columns(out / "energy_vs_time.dat", [np.array(traj.times), Es])
    if decay_json is not None:
        _write_json(out / "decay_report.json", decay_json)
    if prof is not None:
        _write_columns(out / "rho_vs_S.dat", [prof.S, prof.rho])
    if sampled is not None:
        pos = sampled.E > 0
        if pos.any():
            _write_columns(
                out / "logE_vs_phi.dat", [sampled.phi[pos], np.log(sampled.E[pos])]
            )
    marks.append(perf_counter())

    meta = _metadata(config, ops, traj, marks)
    if aborted is not None:
        meta["abort"] = {"reason": aborted.reason, "time": aborted.time}
    if boundary_residual is not None:
        meta["initial_boundary_residual"] = boundary_residual
    _write_json(out / "run_metadata.json", meta)
    return result


# Phases of a scenario timed in run_metadata.json; set-up includes the JSON
# reports written before stepping, and artifacts everything written after
# it but run_metadata.json itself.
PHASES = ("setup", "stepping", "analysis", "artifacts")


def _decay_times(config: RunConfig, kernel: RelaxationKernel) -> tuple[float, float]:
    """(t0, t_tail) of the decay report for ``run`` and ``decay-report``
    alike: the configured values, or by default the half-mass time of the
    kernel and a quarter of the configured t_end."""
    t0 = config.analysis.t0 or default_weighted_t0(kernel)
    return t0, config.analysis.t_tail or 0.25 * config.stepping.t_end


def _hypothesis_report(config: RunConfig, kernel: RelaxationKernel) -> HypothesisReport:
    """(H1)-(H2) verdicts for ``run`` and ``check-kernel`` alike, on the
    configured horizon or by default twice the run's, at least 20."""
    horizon = config.analysis.hypothesis_horizon or max(20.0, 2.0 * config.stepping.t_end)
    coeffs = BoundaryCoefficients(config.physics.p_c, config.physics.q_c)
    return validate_hypotheses(kernel, coeffs, horizon)


def _metadata(config: RunConfig, ops, traj, marks: list[float]) -> dict:
    """``marks`` holds the perf_counter readings at the start and at the end
    of each of PHASES; the run time counts up to this call."""
    return {
        "viscowave_version": __version__,
        "numpy_version": np.__version__,
        "config": config.to_dict(),
        "lam_max_unit": ops.lam_max_unit,
        "n_records": traj.n_records if traj is not None else 0,
        "memory": traj.memory if traj is not None else None,
        "timings": {name: end - begin for name, begin, end in zip(PHASES, marks, marks[1:])},
        "runtime_seconds": round(perf_counter() - marks[0], 3),
    }


# ----------------------------------------------------------------------
# manufactured-solution ladder
# ----------------------------------------------------------------------


def run_mms_level(config: RunConfig, mesh: Mesh, ops) -> dict:
    """One manufactured run of the linear-profile case; L2-in-space error at
    the final time against the exact field."""
    if config.domain.dimension != 1 or "right" not in config.domain.gamma1_faces:
        raise ValueError("the shipped manufactured case needs a 1D domain with "
                         "the acoustic face on the right")
    kernel = config.build_kernel()
    msol = linear_profile_solution(kernel, length=config.domain.extent[0])
    case = build_manufactured_case(msol, ops, config.physics, kernel,
                                   t_end=config.stepping.t_end)
    cfg = StepperConfig(
        dt=config.stepping.dt,
        t_end=config.stepping.t_end,
        record_every=max(1, int(round(config.stepping.t_end / config.stepping.dt))),
        cfl_safety=config.stepping.cfl_safety,
        forcing=case.forcing,
    )
    traj = run(case.u0, case.u1, case.y0, ops, kernel, config.physics, cfg)
    final = traj.final
    exact = np.asarray(msol.u(mesh.nodes, final.t), dtype=float)
    diff = final.u - pin_gamma0(mesh, exact)
    err = math.sqrt(max(float(diff @ (ops.mass @ diff)), 0.0))
    return {
        "l2_error": err,
        "t_final": final.t,
        "dt": config.stepping.dt,
        "resolution": list(config.domain.resolution),
        "boundary_residual": case.boundary_residual,
        "y_error": float(np.max(np.abs(final.y - msol.y(final.t)))),
    }


def run_mms_ladder(base_config: RunConfig, levels: int = 3) -> dict:
    """Halve h and dt together ``levels`` times; report errors and ratios."""
    entries = []
    raw = base_config.to_dict()
    for lvl in range(levels):
        cfg_dict = copy.deepcopy(raw)
        cfg_dict["domain"]["resolution"] = [r * 2**lvl for r in raw["domain"]["resolution"]]
        cfg_dict["stepping"]["dt"] = raw["stepping"]["dt"] / 2**lvl
        cfg = parse_config(json.dumps(cfg_dict))
        mesh = build_mesh(cfg.domain)
        ops = assemble(mesh)
        entries.append(run_mms_level(cfg, mesh, ops))
    errors = [e["l2_error"] for e in entries]
    ratios = [errors[i] / errors[i + 1] if errors[i + 1] > 0 else math.inf
              for i in range(len(errors) - 1)]
    return {"levels": entries, "errors": errors, "ratios": ratios}


# ----------------------------------------------------------------------
# shipped scenario presets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    config: dict
    expected: dict

    def parse(self) -> RunConfig:
        return parse_config(json.dumps(self.config))


def _preset(name: str, expected: dict, **overrides) -> ScenarioPreset:
    cfg = copy.deepcopy(DEFAULTS)
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            cfg[section].update(vals)
        else:
            cfg[section] = vals
    cfg["output_dir"] = f"viscowave-out/{name}"
    return ScenarioPreset(name=name, config=cfg, expected=expected)


PRESETS: dict[str, ScenarioPreset] = {
    p.name: p
    for p in [
        _preset(
            "exp-inwell",
            expected={"in_well": True, "completes": True, "hypotheses_pass": True,
                      "tail_regression": "phi", "slope_negative": True, "r2_min": 0.95},
            initial={"profile": "sine", "amplitude": 0.4},
            stepping={"dt": 1e-3, "t_end": 10.0, "record_every": 2},
            analysis={"t_tail": 4.0},
        ),
        _preset(
            "powerlaw-inwell",
            expected={"in_well": True, "completes": True, "hypotheses_pass": True,
                      "tail_regression": "log1p", "slope_negative": True, "r2_min": 0.95},
            physics={"a": 3.0},
            kernel={"family": "power_law", "alpha": 2.0},
            initial={"profile": "sine", "amplitude": 0.4},
            stepping={"dt": 2e-3, "t_end": 40.0, "record_every": 20},
            analysis={"t_tail": 15.0},
        ),
        _preset(
            "oscillatory-inwell",
            expected={"in_well": True, "completes": True, "hypotheses_pass": True,
                      "omega_positive": True, "horizon_change_max": 0.20},
            kernel={"family": "oscillatory", "alpha": 1.0, "eps": 0.5},
            initial={"profile": "sine", "amplitude": 0.4},
            stepping={"dt": 2e-3, "t_end": 20.0, "record_every": 10},
            analysis={"t_tail": 8.0},
        ),
        _preset(
            "out-of-well",
            expected={"in_well": False, "exploratory": True},
            physics={"b": 0.0},
            initial={"profile": "sine", "amplitude": 2.5},
            stepping={"dt": 5e-4, "t_end": 10.0, "record_every": 10},
            analysis={"decay": False},
        ),
        _preset(
            "mms-ladder",
            expected={"ratio_min": 3.5},
            mode="mms",
            domain={"resolution": [16]},
            physics={"b": 0.0, "source_enabled": False},
            initial={"profile": "linear", "amplitude": 1.0},
            stepping={"dt": 4e-3, "t_end": 1.0, "record_every": 250},
            analysis={"constants": False, "decay": False},
        ),
    ]
}


# ----------------------------------------------------------------------
# command-line interface
# ----------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise SystemExit(f"unknown preset '{args.preset}'; available: {sorted(PRESETS)}")
        return PRESETS[args.preset].parse()
    if getattr(args, "config", None):
        return parse_config(Path(args.config).read_text())
    raise SystemExit("either --config FILE or --preset NAME is required")


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = run_scenario(config, out_dir=args.out)
    status = "aborted" if result.aborted else "completed"
    print(f"scenario {status}; artifacts in {result.out_dir}")
    return 0


def _cmd_constants(args) -> int:
    config = _load_config(args)
    mesh = build_mesh(config.domain)
    ops = assemble(mesh)
    kernel = config.build_kernel()
    constants = compute_well_constants(mesh, ops, config.physics, kernel, seed=config.seed)
    print(_json_text(constants))
    return 0


def _cmd_check_kernel(args) -> int:
    config = _load_config(args)
    report = _hypothesis_report(config, config.build_kernel())
    print(_json_text(report))
    return 0 if report.passed else 1


def _cmd_decay_report(args) -> int:
    config = _load_config(args)
    kernel = config.build_kernel()
    try:
        data = np.genfromtxt(args.csv, delimiter=",", names=True)
        sampled = SampledEnergy.from_samples(np.atleast_1d(data["t"]),
                                             np.atleast_1d(data["E"]), kernel)
        t0, t_tail = _decay_times(config, kernel)
        report = build_decay_report(sampled, t_tail=t_tail, t0=t0)
    except (OSError, ValueError) as exc:  # unreadable CSV, or too few or negative samples
        print(f"decay-report: {exc}", file=sys.stderr)
        return 2
    print(_json_text(report))
    return 0


def _cmd_mms(args) -> int:
    config = _load_config(args)
    ladder = run_mms_ladder(config, levels=args.levels)
    print(_json_text(ladder))
    if args.out:
        _write_json(Path(args.out), ladder)
    return 0


def _sweep_worker(payload):
    config, out_dir = payload
    result = run_scenario(config, out_dir=out_dir)
    return out_dir, result.aborted is None


def _sweep_jobs(config: RunConfig, param: str, root: Path) -> list[tuple[RunConfig, str]]:
    """One validated (config, out_dir) per value of ``section.key=v1,v2,...``;
    every problem is raised in one :class:`ConfigError` before any run starts."""
    path, eq, values = param.partition("=")
    section, dot, key = path.partition(".")
    base = config.to_dict()
    if not (eq and dot and key):
        raise ConfigError([f"--param must read section.key=v1,v2,..., got {param!r}"])
    if not isinstance(base.get(section), dict):
        raise ConfigError([f"--param {path}: {section!r} is not a config section"])
    jobs, errors = [], []
    for idx, val_text in enumerate(values.split(",")):
        cfg = copy.deepcopy(base)
        try:
            cfg[section][key] = json.loads(val_text)
            jobs.append((parse_config(json.dumps(cfg)),
                         str(root / f"sweep_{idx:02d}_{key}_{val_text}")))
        except json.JSONDecodeError:
            errors.append(f"--param {path}: value {val_text!r} is not JSON")
        except ConfigError as exc:
            errors += [f"--param {path}={val_text}: {e}" for e in exc.errors]
    if errors:
        raise ConfigError(errors)
    return jobs


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    jobs = _sweep_jobs(config, args.param, Path(args.out or config.output_dir))
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = [_sweep_worker(j) for j in jobs]
    for out_dir, ok in outcomes:
        print(f"{'ok   ' if ok else 'abort'} {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="viscoelastic Kirchhoff wave lab: simulate, verify energy "
                    "decay, estimate well constants",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--preset", help=f"named preset: {sorted(PRESETS)}")

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    add_config_args(p_run)
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_const = sub.add_parser("constants", help="well constants as JSON")
    add_config_args(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_check = sub.add_parser("check-kernel", help="kernel hypothesis report")
    add_config_args(p_check)
    p_check.set_defaults(func=_cmd_check_kernel)

    p_decay = sub.add_parser("decay-report", help="decay report from a trajectory CSV")
    add_config_args(p_decay)
    p_decay.add_argument("--csv", required=True, help="trajectory.csv path")
    p_decay.set_defaults(func=_cmd_decay_report)

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence ladder")
    add_config_args(p_mms)
    p_mms.add_argument("--levels", type=int, default=3)
    p_mms.add_argument("--out", help="optional JSON output path")
    p_mms.set_defaults(func=_cmd_mms)

    p_sweep = sub.add_parser("sweep", help="run a one-parameter sweep")
    add_config_args(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="override, e.g. initial.amplitude=0.1,0.2,0.4")
    p_sweep.add_argument("--out", help="root output directory")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
