"""Record each workload's reference energy trace from the current source tree.

    python3 perfbench/record_reference.py

Writes reference/<workload>.json with the energy E(t) at every record, as
exact float reprs, and the SHA-256 of trajectory.csv.  The stored traces were
recorded once, at the commit that added the benchmark; ``ref_dev`` measures
every later commit against them, so do not re-record them to make a change
pass.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import OUT_ROOT, load_package


def main() -> int:
    loaded = load_package()
    if loaded is None:
        print("error: no viscowave source tree under src/", file=sys.stderr)
        return 2
    _, cli = loaded
    from workloads import WORKLOADS

    out = OUT_ROOT / "reference"
    try:
        for workload in WORKLOADS.values():
            config, _ = workload.build(cli, seed=cli.DEFAULTS["seed"])
            result = cli.run_scenario(config, out_dir=out / workload.name)
            csv = (out / workload.name / "trajectory.csv").read_bytes()
            payload = {
                "workload": workload.name,
                "E": [r.total for r in result.trajectory.reports],
                "trajectory_csv_sha256": hashlib.sha256(csv).hexdigest(),
            }
            workload.reference_path().write_text(json.dumps(payload) + "\n")
            print(f"{workload.name}: {len(payload['E'])} records")
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
