"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import freeze  # noqa: E402
import run  # noqa: E402

SPEC = run.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_prints_with_its_unit(name, trace):
    result = run.run(name, seed=2, seconds=0.3, trace=trace, tiny=True)
    lines = run.report(result)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    for metric in listed + [{"name": "failed_ratio", "unit": "ratio"}]:
        assert any(line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
                   for line in lines), metric["name"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_tampered_digest_is_a_failed_job():
    expected = freeze.freeze("clustered", run.DEFAULT_SEED, tiny=True)
    assert run.run("clustered", run.DEFAULT_SEED, 0.3, False, tiny=True,
                   expected=expected)["correct"]
    victim = sorted(expected)[0]
    expected[victim] = [expected[victim][0], "0" * 64]
    result = run.run("clustered", run.DEFAULT_SEED, 0.3, False, tiny=True,
                     expected=expected)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "digest" in result["failures"][victim]


def test_second_seed_passes_seed_independent_rechecks():
    for name in WORKLOADS:
        result = run.run(name, seed=7, seconds=0.3, trace=False, tiny=True)
        assert result["correct"], result["failures"]
        assert not result["provenance"]["digest_gate"]


def test_recheck_rejects_a_wrong_payment(tmp_path):
    import gate
    import workloads

    cli = run.import_program()
    wl = workloads.build("clustered", 3, tmp_path, tiny=True)
    job = wl.jobs[0]
    _, code, stdout = run.execute(cli, job.argv)
    inst = gate.load_instance(job.instance)
    gate.recheck(job, code, stdout, inst)
    out = json.loads(stdout)
    project, per_voter = next(iter(out["trace"]["payments"].items()))
    voter = next(iter(per_voter))
    per_voter[voter] = "0"
    with pytest.raises(gate.CheckFailed):
        gate.recheck(job, code, json.dumps(out), inst)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
