#!/usr/bin/env python3
"""Check that `pb` answers every benchmark job here as another checkout does.

For each seed, the jobs of the benchmark's ``uniform`` and ``clustered``
workloads are built by this checkout's ``perfbench/workloads.py`` into a
temporary directory. Front-end jobs that the benchmark never runs are added
per seed, on that seed's uniform instances:

- ``price extract`` with MES and Phragmen on each ``price`` instance, and
  ``price verify``, plain and with ``--c6 --strict-b``, of the MES, Phragmen
  and maximin systems that this checkout's ``price extract`` prints;
- ``run --rule gcr``, ``run --rule phragmen --skip-blocked --tie reverse``
  and ``audit --axiom pjrx`` on the first 8 ``audit`` instances;
- on the same instances, every satisfaction selector the benchmark leaves
  out: ``run --rule mes`` with ``sqrt``, ``log`` and ``share``, ``run --rule
  gcr`` with a ``costmap:`` file, and ``audit`` with ``share``, ``costmap:``
  and ``table:`` files written from the instance, plus a cost map that lacks
  one cost and a table that lacks one project;
- ``gen``, a usage error and a missing file;

and once, ``pb repro`` with all cases, with one case and with an unknown
case. Every job runs through both checkouts' ``cli.main`` in one process,
each code imported under its own package name as ``ab_rules.load`` does.
Prints each job whose exit code, stdout or stderr differs, then the number
of jobs compared; exits 1 on any difference.

Example:
    python scripts/compare_outputs.py ../pbprop-parent --seeds 1 3
"""
import argparse
import importlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ab_rules import ROOT, load


def answer(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `pb` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        except Exception as exc:  # a crash is an answer to compare, too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def front_end_jobs(cli, seed: int, jobs, workdir: Path) -> list[tuple[str, tuple]]:
    """The jobs above on the instances of one seed's uniform ``jobs``, with
    the price systems to verify written into ``workdir``."""
    def instances(part):
        return list(dict.fromkeys(job.instance for job in jobs if job.id.startswith(part)))

    found = []
    for k, path in enumerate(instances("price/")):
        for rule in ("mes", "phragmen", "maximin"):
            extract = ("price", "extract", "--rule", rule, path)
            if rule != "maximin":  # the benchmark runs the maximin extraction
                found.append(extract)
            _, out, _ = answer(cli, extract)
            if not out:  # no system to verify
                continue
            payload = json.loads(out)
            system = workdir / f"p{k:02d}-{rule}-system.json"
            system.write_text(json.dumps(payload["system"]))
            outcome = ",".join(payload["outcome"]) or "-"
            found += [("price", "verify", *flags, path, outcome, str(system))
                      for flags in ((), ("--c6", "--strict-b"))]
    for k, path in enumerate(instances("audit/")[:8]):
        audit = next(job.argv for job in jobs if job.instance == path)
        projects = json.loads(Path(path).read_text())["projects"]
        costs = list(dict.fromkeys(p["cost"] for p in projects))
        sat = {}
        for name, values in (
            ("costmap", {c: str(j + 1) for j, c in enumerate(costs)}),
            ("costmap-gap", {c: str(j + 1) for j, c in enumerate(costs[1:])}),
            ("table", {p["id"]: f"{j % 3 + 1}/2" for j, p in enumerate(projects)}),
            ("table-gap", {p["id"]: "1" for p in projects[:-1]}),
        ):
            file = workdir / f"a{k:02d}-{name}.json"
            file.write_text(json.dumps(values))
            sat[name] = f"{name.split('-')[0]}:{file}"
        found += [("run", "--rule", "gcr", path),
                  ("run", "--rule", "phragmen", "--skip-blocked", "--tie", "reverse", path),
                  ("audit", "--axiom", "pjrx", *audit[1:]),
                  *(("run", "--rule", "mes", "--sat", s, path) for s in ("sqrt", "log", "share")),
                  ("run", "--rule", "gcr", "--sat", sat["costmap"], path),
                  *(("audit", "--sat", s, *audit[3:])
                    for s in ("share", sat["costmap"], sat["table"], sat["table-gap"])),
                  ("run", "--rule", "mes", "--sat", sat["costmap-gap"], path)]
    found += [("gen", "--n", "4", "--m", "5", "--seed", str(seed)),
              ("run", "--rule", "nope", jobs[0].instance),
              ("run", "--rule", "mes", str(workdir / "missing.json"))]
    return [(f"front end seed {seed}", argv) for argv in found]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other pbprop checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    args = parser.parse_args(argv)
    clis = [importlib.import_module(f"{load(name, checkout).__name__}.cli")
            for name, checkout in (("pbprop_this", ROOT),
                                   ("pbprop_other", args.other.resolve()))]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    compared = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [("repro", argv) for argv in (("repro",), ("repro", "best-outcome"),
                                             ("repro", "zzz"))]
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                workdir = Path(tmp) / f"{name}-{seed}"
                built = workloads.build(name, seed, workdir)
                jobs += [(f"{name} seed {seed} {job.id}", job.argv) for job in built.jobs]
                if name == "uniform":
                    jobs += front_end_jobs(clis[0], seed, built.jobs, workdir)
        for label, job_argv in jobs:
            this, other = (answer(cli, job_argv) for cli in clis)
            compared += 1
            if this != other:
                differ += 1
                fields = [f for f, a, b in zip(("exit code", "stdout", "stderr"), this, other)
                          if a != b]
                print(f"{label}: {', '.join(fields)} differ ({' '.join(job_argv)})")
    print(f"{compared} jobs compared on seed(s) {' '.join(map(str, args.seeds))} and "
          f"pb repro: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
