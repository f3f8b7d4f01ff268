"""The hooks the benchmark harness (perfbench/run.py) relies on.

With ``--trace 1`` the harness reads per-layer metrics from spans named
``<module>.<function>`` or ``<module>.<Class>.<method>``; a span whose
function was deleted or renamed raises a KeyError only when traced.  The
harness also times the stepping phase by patching ``cli.run``, and sums the
ascent iterations from the well constants' diagnostics into a rerun
fingerprint.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from viscowave import cli, stepper
from viscowave.history import HistoryBuffer

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layer_metric_spans() -> set[str]:
    """Dotted string constants in ``Bench._layer_metrics`` that are not
    dict keys (the keys are metric names, not spans)."""
    tree = ast.parse(RUN_PY.read_text())
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "_layer_metrics")
    keys = {id(k) for n in ast.walk(func) if isinstance(n, ast.Dict) for k in n.keys}
    return {n.value for n in ast.walk(func)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and "." in n.value and id(n) not in keys}


def _diagnostics_key_paths() -> set[tuple[str, ...]]:
    """Key paths the harness reads below ``diag``, the well constants'
    diagnostics dict: ``diag["embedding"]["iterations"]`` is
    ("embedding", "iterations")."""
    tree = ast.parse(RUN_PY.read_text())
    paths = set()
    for node in ast.walk(tree):
        keys = []
        while isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            keys.append(node.slice.value)
            node = node.value
        if keys and isinstance(node, ast.Name) and node.id == "diag":
            paths.add(tuple(reversed(keys)))
    # keep only the longest chains (("embedding",) is part of ("embedding", ...))
    return {p for p in paths if not any(q != p and q[:len(p)] == p for q in paths)}


def _is_traced(span: str) -> bool:
    """True when the harness's span wrapper would record ``span``: a public
    function of the module, or a public method defined on a class of it."""
    module_name, *path = span.split(".")
    module = importlib.import_module(f"viscowave.{module_name}")
    if any(part.startswith("_") for part in path):
        return False
    if len(path) == 1:
        obj = getattr(module, path[0], None)
        return inspect.isfunction(obj) and obj.__module__ == module.__name__
    if len(path) == 2:
        cls = getattr(module, path[0], None)
        if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
            return False
        attr = vars(cls).get(path[1])
        return inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod))
    return False


def test_layer_metric_spans_name_public_callables():
    spans = _layer_metric_spans()
    assert {"stepper.step", "assembly.source_vector", "energy.compute_energy",
            "history.HistoryBuffer.convolution_force"} <= spans
    missing = sorted(s for s in spans if not _is_traced(s))
    assert missing == []


def test_run_scenario_calls_run_through_the_cli_attribute(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return stepper.run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted)
    config = cli.parse_config(json.dumps({
        "domain": {"resolution": [8]},
        "stepping": {"dt": 2e-3, "t_end": 0.02, "record_every": 5},
    }))
    cli.run_scenario(config, out_dir=tmp_path / "run")
    assert calls == [1]


def test_well_constants_json_carries_the_diagnostics_the_harness_reads(tmp_path):
    paths = _diagnostics_key_paths()
    assert {("embedding", "iterations"), ("trace", "iterations")} <= paths
    config = cli.parse_config(json.dumps({
        "domain": {"resolution": [8]},
        "stepping": {"dt": 2e-3, "t_end": 0.02, "record_every": 5},
    }))
    cli.run_scenario(config, out_dir=tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "well_constants.json").read_text())
    for path in paths:
        value = saved["diagnostics"]
        for key in path:
            value = value[key]
        assert value and all(isinstance(v, int) and v >= 0 for v in value), path


def test_run_calls_the_traced_layers_through_their_module_attributes(tmp_path, monkeypatch):
    # --trace 1 divides per-layer times by the time of the stepper.step
    # spans, so run must call step, the source vector, the history's push
    # and force read and the energy report through the names that
    # SpanRecorder.install rebinds: one call per step of each (plus the
    # initial evaluation), and one energy report per record
    calls = {}

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return counted

    for name in ("step", "source_vector", "compute_energy"):
        monkeypatch.setattr(stepper, name, counting(name, getattr(stepper, name)))
    for name in ("push", "convolution_force"):
        monkeypatch.setattr(HistoryBuffer, name, counting(name, getattr(HistoryBuffer, name)))
    config = cli.parse_config(json.dumps({
        "domain": {"resolution": [8]},
        "stepping": {"dt": 2e-3, "t_end": 0.02, "record_every": 5},
    }))
    assert config.physics.source_enabled
    cli.run_scenario(config, out_dir=tmp_path / "run")
    assert calls == {"step": 10, "source_vector": 11, "push": 11, "convolution_force": 11,
                     "compute_energy": 3}
