"""Frozen raw stdout of the `pb` verbs.

Runs ``pbprop.cli.main`` on fixed inputs and keeps, per job, the exit code
and a SHA-256 of stdout exactly as written: whitespace, key order and the
final newline included. The benchmark's digest gate compares canonical
JSON, so only this test sees a change in layout. The digests in
``fixtures/stdout_digests.json`` were computed before stdout got its own
JSON writer; the test names every job whose stdout moved since.

Regenerate the fixture, only for an intended change of output, with

    PYTHONPATH=src:tests python tests/test_stdout_digests.py
"""
import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import FIXTURES, pabulib_text
from pbprop.cli import main
from pbprop.model import GenParams, emit_json, generate_random
from pbprop.pricing import extract_from_mes_trace
from pbprop.rules import run_mes
from pbprop.satisfaction import cardinality_sat

FIXTURE = FIXTURES / "stdout_digests.json"


def clustered_pb(n: int = 300, m: int = 12) -> str:
    """A Pabulib-style election with few distinct ballots: four popular
    bundles with Zipf-like shares, and one voter in twenty adding a project.
    One project id is not ASCII, as in real Pabulib files."""
    rng = random.Random("stdout-digests")
    projects = [f"p{j}" for j in range(1, m + 1)]
    costs = [1000 + 250 * rng.randrange(17) for _ in projects]
    bundles = [sorted(rng.sample(projects, k)) for k in (3, 5, 4, 2)]
    ballots = [set(bundles[min(int(rng.paretovariate(1.2)) - 1, 3)]) for _ in range(n)]
    for ballot in rng.sample(ballots, n // 20):
        ballot.add(rng.choice(projects))
    name = {p: p + "-żłobek" * (p == bundles[0][0]) for p in projects}
    return pabulib_text({name[p]: c for p, c in zip(projects, costs)}, 1500 * m,
                        [{name[p] for p in b} for b in ballots])


def jobs(workdir: Path) -> dict[str, list[str]]:
    """The jobs by id, on input files written into ``workdir``."""
    inst = generate_random(GenParams(n=10, m=8, density=0.4), seed=3)
    path = workdir / "inst.json"
    path.write_text(emit_json(inst))
    mes_card, trace = run_mes(inst, cardinality_sat(inst))
    system = workdir / "ps.json"
    system.write_text(json.dumps(extract_from_mes_trace(inst, trace).to_dict()))
    pb = workdir / "clustered.pb"
    pb.write_text(clustered_pb())
    outcome = ",".join(sorted(mes_card))
    i, c = str(path), str(pb)
    return {
        "run-mes": ["run", "--rule", "mes", "--sat", "card", i],
        "run-phragmen": ["run", "--rule", "phragmen", i],
        "run-phragmen-skip": ["run", "--rule", "phragmen", "--skip-blocked", i],
        "run-maximin": ["run", "--rule", "maximin", i],
        "run-gcr": ["run", "--rule", "gcr", "--sat", "sqrt", i],
        "audit-cost": ["audit", i, "p1,p2"],
        "audit-card": ["audit", "--sat", "card", i, outcome],
        "price-verify": ["price", "verify", "--c6", "--strict-b", i, outcome, str(system)],
        "price-extract-mes": ["price", "extract", "--rule", "mes", "--sat", "card", i],
        "price-extract-maximin": ["price", "extract", "--rule", "maximin", "--c6", i],
        "price-find": ["price", "find", "--c6", "--strict-b", i, outcome],
        "gen": ["gen", "--n", "6", "--m", "5", "--seed", "11"],
        "repro": ["repro"],
        "clustered-run-mes": ["run", "--rule", "mes", c],
        "clustered-extract-mes": ["price", "extract", "--rule", "mes", c],
    }


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {job: digest(argv) for job, argv in jobs(Path(tmp)).items()}


def test_raw_stdout_matches_frozen_digests():
    frozen = json.loads(FIXTURE.read_text())
    now = digests()
    assert sorted(now) == sorted(frozen)
    moved = [job for job in now if now[job] != frozen[job]]
    assert not moved, f"stdout or exit code changed for {moved}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=1) + "\n")
