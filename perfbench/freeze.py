"""Write expected.json: each job's exit code and stdout digest on the
default seed, for the exact output gate.

    python3 perfbench/freeze.py

Every output must pass the seed-independent re-checks before it is frozen.
Re-freeze only when a change is meant to alter pb's output.
"""
import json
import shutil
import sys

import run


def freeze(name: str, seed: int, tiny: bool = False) -> dict[str, list]:
    """{job id: [exit code, stdout digest]} for one workload."""
    cli = run.import_program()
    import gate
    import workloads

    workdir = run.OUT / f"freeze-{name}"
    try:
        wl = workloads.build(name, seed, workdir, tiny=tiny)
        frozen = {}
        for job in wl.jobs:
            _, code, stdout = run.execute(cli, job.argv)
            gate.recheck(job, code, stdout, gate.load_instance(job.instance))
            frozen[job.id] = [code, gate.digest(stdout)]
        return frozen
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    run.import_program()
    import gate

    names = [w["name"] for w in run.spec()["workloads"]]
    expected = {name: freeze(name, run.DEFAULT_SEED) for name in names}
    lines = []
    for name, jobs in expected.items():
        rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(jobs.items())]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    gate.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {gate.EXPECTED_PATH}: "
          + ", ".join(f"{k} {len(v)} jobs" for k, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
