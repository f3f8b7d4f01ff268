"""The benchmark's workloads and the verdicts every run of them must meet.

The seed argument becomes ``config.seed``, the program's only random input:
it seeds the multi-start ascent for the well constants.  The trajectory does
not depend on it, so one stored reference energy trace serves every seed.
See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None = None
    overrides: dict = field(default_factory=dict)
    expected: dict | None = None  # None: the preset's own ``expected`` dict
    gate_identity: bool = False   # fail runs whose identity residual exceeds c_id

    def build(self, cli, seed: int):
        """(RunConfig, expected verdicts) for one seed."""
        raw = copy.deepcopy(cli.PRESETS[self.preset].config) if self.preset else {}
        for section, values in self.overrides.items():
            raw.setdefault(section, {}).update(values)
        raw["seed"] = seed
        expected = self.expected if self.expected is not None else cli.PRESETS[self.preset].expected
        return cli.parse_config(json.dumps(raw)), expected

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"


WORKLOADS = {
    w.name: w
    for w in [
        Workload("exp-1d", preset="exp-inwell", gate_identity=True),
        Workload("oscillatory-1d", preset="oscillatory-inwell"),
        Workload(
            "square-2d",
            overrides={
                "domain": {"dimension": 2, "extent": [1.0, 1.0], "gamma1_faces": ["right"],
                           "resolution": [64, 64]},
                "initial": {"profile": "sine", "amplitude": 0.4},
                "stepping": {"dt": 2e-3, "t_end": 2.0, "record_every": 10},
            },
            expected={"in_well": True, "completes": True, "hypotheses_pass": True,
                      "omega_positive": True, "slope_negative": True},
        ),
    ]
}


def residual_scale(config, E0: float) -> float:
    """(dt^2 + h^2) E(0), the unit of every energy tolerance."""
    h = max(e / r for e, r in zip(config.domain.extent, config.domain.resolution))
    return (config.stepping.dt ** 2 + h ** 2) * E0


def load_reference(workload: Workload) -> list[float]:
    return json.loads(workload.reference_path().read_text())["E"]


def _expected_failures(expected: dict, result) -> list[str]:
    rep = result.decay_report
    fails = []
    for key, want in expected.items():
        if key == "in_well":
            ok = result.stable_report is not None and result.stable_report.in_well == want
        elif key == "completes":
            ok = (result.aborted is None) == want
        elif key == "hypotheses_pass":
            ok = result.hypothesis_report.passed == want
        elif key == "tail_regression":
            ok = want == "phi"  # the decay report regresses ln E against Phi
        elif key == "slope_negative":
            ok = rep is not None and (rep.tail_slope < 0) == want
        elif key == "r2_min":
            ok = rep is not None and rep.tail_r2 >= want
        elif key == "omega_positive":
            ok = rep is not None and (rep.omega_max > 0) == want
        elif key == "horizon_change_max":
            ok = rep is not None and rep.omega_change < want
        else:
            raise ValueError(f"no check for expected key {key!r}")
        if not ok:
            fails.append(f"expected {key}={want!r} not met")
    return fails


def verdicts(result, expected: dict, reference: list[float], gate_identity: bool, vw):
    """Failures of one scenario run, plus the numbers the gates measured.

    ``vw`` is the imported viscowave package; ``result`` a ScenarioResult.
    """
    config = result.config
    fails: list[str] = []
    if result.aborted is not None:
        fails.append(f"aborted: {result.aborted.reason}")
    if not result.hypothesis_report.passed:
        fails.append("hypothesis report fails: " + "; ".join(result.hypothesis_report.failures()))
    if result.stable_report is None or not result.stable_report.in_well:
        fails.append("initial data not in the well")
    traj = result.trajectory
    if result.constants is not None and not vw.verify_invariance(traj, result.constants).passed:
        fails.append("well invariance fails")

    E = np.array([r.total for r in traj.reports])
    scale = residual_scale(config, float(E[0]))
    rise = float(np.diff(E).max(initial=-math.inf))
    if rise > config.c_energy * scale:
        fails.append(f"energy rise {rise:.3e} > c_energy budget {config.c_energy * scale:.3e}")
    fails += _expected_failures(expected, result)

    if len(E) == len(reference):
        ref_dev = float(np.abs(E - np.asarray(reference)).max()) / scale
    else:
        ref_dev = math.inf
    if not ref_dev <= config.c_id:
        fails.append(f"ref_dev {ref_dev:.3e} > c_id {config.c_id}")

    _, res = vw.rate_identity_residual(traj.reports)
    id_ratio = float(np.abs(res).max()) / (config.c_id * scale)
    if gate_identity and not id_ratio <= 1.0:
        fails.append(f"identity residual {id_ratio:.3f} x the c_id budget")
    return fails, {"ref_dev": ref_dev, "id_residual_ratio": id_ratio}
