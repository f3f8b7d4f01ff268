"""Closed-loop benchmark of viscowave scenarios.

    python3 perfbench/run.py --workload exp-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client calls ``cli.run_scenario`` on
one workload back to back, in this process, for about ``--seconds`` seconds,
and checks every run against the paper's verdicts (see workloads.py).

``--trace 0`` reports the end-to-end metrics from untraced runs.  Their
times are scaled to a reference host speed, sampled during each call, so
that the drift of a shared host's speed does not show (speed.py).
``--trace 1`` spends half the time on untraced runs and half on runs with
every public function of the package wrapped in a span (spans.py), and
reports the per-layer metrics plus the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A run counts as failed if it raises, fails a verdict, or differs
from the invocation's first run in its trajectory.csv SHA-256 or an exact
count.  See NOTES.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, for steady timings.  numpy reads these when first imported.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np

from spans import SpanRecorder
from speed import SpeedSampler
from workloads import WORKLOADS, load_reference, verdicts

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
LAYERS = ("geometry", "kernels", "assembly", "history", "stepper", "energy",
          "stableset", "decay", "cli")
MIN_REPEATS = 3          # timed repeats with --trace 0
MIN_REPEATS_HALF = 2     # untraced and traced repeats each with --trace 1

END_TO_END_UNITS = {"scenario_s": "s", "setup_s": "s", "steps_per_s": "1/s"}
# per-layer units, keyed by the last part of the metric name
LAYER_UNITS = {
    "us_per_call": "us", "self_us": "us", "s": "s", "calls": "count", "n_entries": "count",
    "growth": "ratio", "step_share": "ratio", "setup_share": "ratio",
    "ascent_iterations": "count", "artifact_bytes": "bytes", "id_residual_ratio": "ratio",
    "overhead_s": "s",
}


def load_package():
    """Import viscowave from this checkout's src/ tree, and nowhere else.

    Returns (package, cli), or None when the tree is missing.
    """
    src = ROOT / "src"
    if not (src / "viscowave" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import viscowave
    from viscowave import cli

    if Path(viscowave.__file__).resolve().parent != src / "viscowave":
        return None
    return viscowave, cli


def _environment(seed: int) -> dict:
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _repeat(budget_s: float, min_reps: int, once, start: int) -> list[dict]:
    """Closed loop: start the next run only after the last one ends, and not
    when it would end past the budget once ``min_reps`` runs are done."""
    runs = []
    t0 = perf_counter()
    while True:
        runs.append(once(start + len(runs)))
        elapsed = perf_counter() - t0
        if len(runs) >= min_reps and elapsed + runs[-1]["wall_s"] > budget_s:
            return runs


class Bench:
    def __init__(self, vw, cli, workload, seed: int, out_dir: Path):
        self.vw, self.cli, self.workload = vw, cli, workload
        self.config, self.expected = workload.build(cli, seed)
        self.reference = load_reference(workload)
        self.out_dir = out_dir
        self.recorder = None
        self.sampler = SpeedSampler()

    def install_tracing(self) -> None:
        self.recorder = SpanRecorder()
        modules = [importlib.import_module(f"viscowave.{m}") for m in LAYERS]
        self.recorder.install(modules, self.vw)

    def once(self, index: int) -> dict:
        """One ``run_scenario`` call: its timings, verdicts and exact counts.

        Any exception fails the run; its artifacts are deleted either way.
        """
        out = self.out_dir / f"run{index:03d}"
        t0 = perf_counter()
        try:
            return self._run(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return {"wall_s": perf_counter() - t0, "fails": ["raised an exception"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _run(self, out: Path) -> dict:
        cli, rec = self.cli, self.recorder
        phase = {}
        stepper_run = cli.run

        def timed_stepper_run(*args, **kwargs):
            phase["start"] = perf_counter()
            try:
                return stepper_run(*args, **kwargs)
            finally:
                phase["end"] = perf_counter()

        cli.run = timed_stepper_run
        if rec is not None:
            rec.clear()
            rec.active = True
        try:
            with self.sampler:
                t0 = perf_counter()
                result = cli.run_scenario(self.config, out_dir=out)
                t1 = perf_counter()
        finally:
            cli.run = stepper_run
            if rec is not None:
                rec.active = False
        scaled = self.sampler.scaled

        fails, gates = verdicts(result, self.expected, self.reference,
                                self.workload.gate_identity, self.vw)
        traj = result.trajectory
        steps = round(traj.times[-1] / self.config.stepping.dt)
        diag = result.constants.diagnostics
        run = {
            "wall_s": t1 - t0,
            "scenario_s": scaled(t0, t1),
            "setup_s": scaled(t0, phase["start"]),
            "steps_per_s": steps / scaled(phase["start"], phase["end"]),
            "artifact_bytes": sum(p.stat().st_size for p in out.iterdir()),
            "fails": fails,
            **gates,
            "fingerprint": {
                "trajectory_csv_sha256":
                    hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
                "steps": steps,
                "energy_reports": len(traj.reports),
                "ascent_iterations":
                    sum(diag["embedding"]["iterations"]) + sum(diag["trace"]["iterations"]),
            },
        }
        if rec is not None:
            run["layers"] = self._layer_metrics(run)
            run["fingerprint"]["partial_mass_calls"] = run["layers"]["kernels.partial_mass.calls"]
            run["fingerprint"]["history_entries"] = run["layers"]["history.n_entries"]
        return run

    def _layer_metrics(self, run: dict) -> dict:
        s = self.recorder.summary()
        step, conv, push = ("stepper.step", "history.HistoryBuffer.convolution_force",
                            "history.HistoryBuffer.push")
        source, pmass = "assembly.source_vector", "kernels.RelaxationKernel.partial_mass"
        diamond = ("history.HistoryBuffer.g_diamond", "history.HistoryBuffer.g_prime_diamond")
        wells = "stableset.compute_well_constants"

        def us_per_call(*names):
            return 1e6 * s.seconds(*names) / max(s.count(*names), 1)

        def self_us_per_call(name):
            return 1e6 * s.self_seconds(name) / max(s.count(name), 1)

        step_s = s.seconds(step)
        steps = s.durations_of(step)
        tenth = max(len(steps) // 10, 1)
        setup_s = s.first_start("stepper.run") - s.first_start("cli.run_scenario")
        return {
            "history.convolution_force.us_per_call": us_per_call(conv),
            "history.diamond.us_per_call": us_per_call(*diamond),
            "history.n_entries": self.recorder.instances["HistoryBuffer"].n_entries,
            "history.step_share": s.child_seconds(step, push, conv) / step_s,
            "history.convolution_force.step_share": s.child_seconds(step, conv) / step_s,
            "kernels.partial_mass.calls": s.count(pmass),
            "kernels.partial_mass.us_per_call": us_per_call(pmass),
            "kernels.validate_hypotheses.s": s.seconds("kernels.validate_hypotheses"),
            "assembly.source_vector.us_per_call": us_per_call(source),
            "assembly.source_vector.step_share": s.child_seconds(step, source) / step_s,
            "assembly.lk_norm_pow.us_per_call": us_per_call("assembly.lk_norm_pow"),
            "assembly.assemble.s": s.seconds("assembly.assemble"),
            "stepper.step.us_per_call": us_per_call(step),
            "stepper.step.self_us": self_us_per_call(step),
            "stepper.step.growth": float(np.median(steps[-tenth:]) / np.median(steps[:tenth])),
            "energy.compute_energy.calls": s.count("energy.compute_energy"),
            "energy.compute_energy.self_us": self_us_per_call("energy.compute_energy"),
            "energy.id_residual_ratio": run["id_residual_ratio"],
            "stableset.compute_well_constants.s": s.seconds(wells),
            "stableset.compute_well_constants.setup_share": s.seconds(wells) / setup_s,
            "stableset.ascent_iterations": run["fingerprint"]["ascent_iterations"],
            "cli.write_trajectory_csv.s": s.seconds("cli.write_trajectory_csv"),
            "cli.artifact_bytes": run["artifact_bytes"],
            "decay.build_decay_report.s": s.seconds("decay.build_decay_report"),
            "geometry.build_mesh.s": s.seconds("geometry.build_mesh"),
        }


def _check_reruns(runs: list[dict]) -> None:
    """Fail every run whose exact outputs differ from the first run's."""
    first: dict = {}
    for r in runs:
        for key, value in r.get("fingerprint", {}).items():
            if first.setdefault(key, value) != value:
                r["fails"].append(f"rerun differs in {key}: {value} != {first[key]}")


def _median(values: list):
    """Median; for counts, the middle count itself."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loaded = load_package()
    if loaded is None:
        print(f"error: no viscowave source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    vw, cli = loaded
    print("env " + json.dumps({**_environment(args.seed), "workload": args.workload,
                               "trace": args.trace, "seconds": args.seconds}))

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    bench = Bench(vw, cli, WORKLOADS[args.workload], args.seed, out_dir)
    try:
        # The first run in a process pays for the allocator growing its heap
        # (about 1.7M page faults, +60% wall time on square-2d), so it is
        # checked but not timed; its wall time is printed as cold_wall_s.
        warmup = bench.once(0)
        if args.trace:
            untraced = _repeat(args.seconds / 2, MIN_REPEATS_HALF, bench.once, start=1)
            bench.install_tracing()
            traced = _repeat(args.seconds / 2, MIN_REPEATS_HALF, bench.once,
                             start=1 + len(untraced))
        else:
            untraced, traced = _repeat(args.seconds, MIN_REPEATS, bench.once, start=1), []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = [warmup, *untraced, *traced]
    _check_reruns(runs)
    for i, r in enumerate(runs):
        kind = "warm-up" if i == 0 else "traced" if i > len(untraced) else "untraced"
        status = "ok" if not r["fails"] else "FAILED: " + "; ".join(r["fails"])
        print(f"run {i} {kind} wall_s={r['wall_s']:.4f} {status}")
    failed = sum(1 for r in runs if r["fails"])
    timed = [r for r in untraced if "setup_s" in r]
    traced_ok = [r for r in traced if "layers" in r]
    if len(timed) < 2 or (args.trace and len(traced_ok) < 2):
        print("error: too few runs completed to report metrics", file=sys.stderr)
        return 1

    checked = [r for r in runs if "ref_dev" in r]
    print(f"info cold_wall_s = {warmup['wall_s']:.6g} s (first run in the process)")
    print(f"info run_fail_ratio = {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    print(f"info ref_dev = {max(r['ref_dev'] for r in checked):.6g} "
          f"(max over runs; gate c_id = {bench.config.c_id})")
    print(f"info energy.id_residual_ratio = {checked[0]['id_residual_ratio']:.6g} "
          f"({'gated' if bench.workload.gate_identity else 'reported only'})")

    metrics = {}
    if args.trace:
        layers = {k: _median([r["layers"][k] for r in traced_ok]) for k in traced_ok[0]["layers"]}
        untraced_s = [r["scenario_s"] for r in timed]
        traced_s = [r["scenario_s"] for r in traced_ok]
        layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        print(f"info untraced scenario_s: {_spread(untraced_s)}")
        print(f"info traced scenario_s: {_spread(traced_s)}")
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": LAYER_UNITS[name.rsplit(".", 1)[-1]]}
    else:
        for name, unit in END_TO_END_UNITS.items():
            values = [r[name] for r in timed]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"info {name}: {_spread(values)}")
        print(f"info unscaled wall_s: {_spread([r['wall_s'] for r in timed])}")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
