"""pbprop benchmark: closed-loop `pb` jobs on seeded PB elections.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each job is one in-process call to
``pbprop.cli.main(argv)`` on a generated instance file, with stdout and
stderr captured; one client sends one job at a time, in one process with
no threads. Workloads and their reasons are listed in BENCHMARK.json.

``--trace 0`` repeats the workload's job list for ``--seconds`` and reports
the end-to-end metrics; ``setup_s`` is the median set-up time of this
process and of a few fresh ones that only set up (``--set-up-only``), run
untimed at even spaces through the timed phase.
``--trace 1`` runs every job on the list twice, untraced and with spans
around every layer (see tracing.py), and reports per-layer totals over the
traced runs plus the tracing overhead. Every output goes through the exact
gate in gate.py; any mismatch counts as a failed job and makes the command
exit 1. The last stdout line is the result JSON; the lines before it give
the provenance and every metric with its unit.
"""
from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 9


class MissingProgram(RuntimeError):
    """The checkout holds no pbprop sources to benchmark."""


def import_program():
    """Import pbprop from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "pbprop" / "__init__.py").is_file():
        raise MissingProgram(f"no pbprop sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pbprop.cli

    if Path(pbprop.__file__).resolve().parent != SRC / "pbprop":
        raise MissingProgram(f"pbprop was imported from {pbprop.__file__}, not {SRC}")
    return pbprop.cli


def execute(cli, argv) -> tuple[float, int | None, str]:
    """Run one job; returns (wall seconds, exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, never the end of the run
        code = None
    return perf_counter() - start, code, out.getvalue()


class Ledger:
    """Every execution's outcome, checked against the first run of its job."""

    def __init__(self) -> None:
        self.first: dict[str, tuple[int | None, str]] = {}
        self.runs: dict[str, int] = {}
        self.bad_runs: dict[str, int] = {}
        self.reasons: dict[str, str] = {}

    def record(self, job_id: str, code: int | None, stdout: str) -> None:
        self.runs[job_id] = self.runs.get(job_id, 0) + 1
        ref = self.first.setdefault(job_id, (code, stdout))
        if code is None:
            self.fail(job_id, "raised an exception")
        elif ref != (code, stdout):
            self.fail(job_id, "output differs between runs of the job")

    def fail(self, job_id: str, reason: str) -> None:
        """Count one failed run of the job."""
        self.bad_runs[job_id] = self.bad_runs.get(job_id, 0) + 1
        self.reasons.setdefault(job_id, reason)

    def gate(self, jobs, expected: dict | None) -> None:
        """Exact checks on each job's reference output; a failing job fails
        every one of its runs."""
        import gate

        instances = {}
        for job in jobs:
            if job.id not in self.first or job.id in self.reasons:
                continue
            code, stdout = self.first[job.id]
            try:
                if expected is not None and [code, gate.digest(stdout)] != expected.get(job.id):
                    raise gate.CheckFailed("exit code or stdout digest differs from expected.json")
                if job.instance not in instances:
                    instances[job.instance] = gate.load_instance(job.instance)
                gate.recheck(job, code, stdout, instances[job.instance])
            except (gate.CheckFailed, ValueError, KeyError, TypeError) as exc:
                self.reasons[job.id] = f"{type(exc).__name__}: {exc}"
                self.bad_runs[job.id] = self.runs[job.id]

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.bad_runs.values())


def set_up(cli, name: str, seed: int, workdir: Path, tiny: bool):
    """Generate the instances and run one untimed warm-up job, which is the
    same on every seed."""
    import workloads

    wl = workloads.build(name, seed, workdir, tiny=tiny)
    execute(cli, workloads.warm_up_job(name, workdir / "warm-up", tiny).argv)
    return wl


def cold_set_up(name: str, seed: int, tiny: bool) -> float:
    """Set-up seconds of a fresh process, timed like the run's own from
    process start to where jobs would begin."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--set-up-only"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def timed_loop(cli, jobs, seconds: float, ledger: Ledger,
               pause, pauses: int) -> tuple[list[float], float]:
    """Closed loop over the job list for ``seconds`` of timed work, split
    into ``pauses + 1`` equal stretches with an untimed ``pause()`` between
    them. Returns the job walls and the timed seconds."""
    walls = []
    elapsed = 0.0
    k = 0
    for stretch in range(pauses + 1):
        if stretch:
            pause()
        start = perf_counter()
        deadline = start + seconds / (pauses + 1)
        while perf_counter() < deadline:
            job = jobs[k % len(jobs)]
            wall, code, stdout = execute(cli, job.argv)
            walls.append(wall)
            ledger.record(job.id, code, stdout)
            k += 1
        elapsed += perf_counter() - start
    return walls, elapsed


def traced_pass(cli, jobs, ledger: Ledger, tracer) -> tuple[dict, dict, float, float]:
    """Each job once untraced and once traced, alternating which goes first
    so that warm-up and drift favour neither. Returns the traced runs' walls
    and stdouts by job id, and the summed untraced and traced walls."""
    walls, outs = {}, {}
    plain_s = traced_s = 0.0
    for k, job in enumerate(jobs):
        for traced in (k % 2 == 1, k % 2 == 0):
            if traced:
                tracer.job = job.id
                tracer.install()
            try:
                wall, code, stdout = execute(cli, job.argv)
            finally:
                tracer.uninstall()
            ledger.record(job.id, code, stdout)
            if traced:
                walls[job.id], outs[job.id] = wall, stdout
                traced_s += wall
            else:
                plain_s += wall
    return walls, outs, plain_s, traced_s


def layer_metrics(tracer, jobs, outs: dict, names) -> dict[str, float]:
    """Per-layer totals over the traced pass for the requested metric names:
    ``<span>.calls`` and ``<span>.self_s`` for every span name the tracer
    installs (zero where the workload never calls that layer), plus counts
    read from the jobs' stdout and ratios of the two."""
    calls, self_s = tracer.totals()
    selections = mes_selections = violations = 0
    for job in jobs:
        out = json.loads(outs[job.id]) if outs.get(job.id) else {}
        if "--rule" in job.argv:
            chosen = len(out.get("outcome", []))
            selections += chosen
            if job.argv[job.argv.index("--rule") + 1] == "mes":
                mes_selections += chosen
        if job.check == "audit":
            violations += sum(v != "pass" for v in out.get("results", {}).values())
    values = {
        "rules.selections": selections,
        "rules.min_rho.useful_ratio": _ratio(mes_selections, calls["rules.min_rho"]),
        "maxflow.solves_per_balance": _ratio(calls["maxflow.max_flow"],
                                             calls["rules.balance_loads"]),
        "axioms.violations": violations,
    }
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in values or kind not in ("calls", "self_s"):
            continue
        if span not in tracer.names:
            raise KeyError(f"no span named {span!r} for metric {name!r}")
        values[name] = calls[span] if kind == "calls" else self_s[span]
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        expected: dict | None = None, started: float | None = None) -> dict:
    """Run one workload; returns the result object plus provenance, failure
    reasons and figures printed beside the metrics. ``expected`` defaults to
    the frozen digests on the default seed and to no digest check on other
    seeds. ``setup_s`` counts from ``started``, by default the call.

    setup_s is the median, over this process and SETUP_SAMPLES - 1 fresh
    ones, of the time from process start to the first timed job."""
    started = perf_counter() if started is None else started
    cli = import_program()
    # The benchmark's own modules import pbprop, so they load only after it.
    if expected is None and seed == DEFAULT_SEED and not tiny:
        import gate

        expected = gate.load_expected(name)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        wl = set_up(cli, name, seed, workdir, tiny)
        setup_s = perf_counter() - started
        ledger = Ledger()
        values: dict[str, float] = {}
        extra: dict[str, tuple[float, str]] = {}
        samples = len(wl.jobs)
        setup_times = [setup_s]
        if trace:
            import tracing

            tracer = tracing.Tracer()
            walls, outs, plain_s, traced_s = traced_pass(cli, wl.jobs, ledger, tracer)
            values["trace.overhead_ratio"] = traced_s / plain_s
            extra["untraced_jobs_per_s"] = (len(wl.jobs) / plain_s, "1/s")
            extra["traced_jobs_per_s"] = (len(wl.jobs) / traced_s, "1/s")
            values.update(layer_metrics(tracer, wl.jobs, outs,
                                        [m["name"] for m in spec()["per_layer"]]))
            for job_id, own in tracer.self_by_job().items():
                if own > walls[job_id]:
                    ledger.fail(job_id, "self times exceed the job's wall time")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        else:
            # The other set-ups are spaced through the timed phase, so their
            # median spans the machine's slow and fast stretches like the jobs.
            walls, elapsed = timed_loop(
                cli, wl.jobs, seconds, ledger,
                pause=lambda: setup_times.append(cold_set_up(name, seed, tiny)),
                pauses=SETUP_SAMPLES - 1)
            samples = len(walls)
            values["setup_s"] = statistics.median(setup_times)
            values["job_p50_s"] = statistics.median(walls)
            values["job_p90_s"] = (statistics.quantiles(walls, n=10)[8]
                                   if len(walls) > 1 else walls[0])
            values["jobs_per_s"] = len(walls) / elapsed
        ledger.gate(wl.jobs, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra["failed_ratio"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    provenance = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "digest_gate": expected is not None,
        "samples": samples,
        "setup_samples_s": setup_times,
        "distinct_jobs": len(wl.jobs),
        "parts": wl.provenance,
    }
    listed = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
        "provenance": provenance,
        "failures": dict(sorted(ledger.reasons.items())),
        "extra": extra,
    }


def report(result: dict) -> list[str]:
    """Stdout lines: provenance, then every metric and extra figure with its
    unit, then the machine-readable result object."""
    lines = [json.dumps({"provenance": result["provenance"]})]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in result["extra"].items()]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines.append(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--set-up-only", action="store_true",
                        help="print only the seconds from process start to the first job")
    args = parser.parse_args(argv)
    try:
        if args.set_up_only:
            workdir = OUT / f"set-up-{args.workload}-{os.getpid()}"
            try:
                set_up(import_program(), args.workload, args.seed, workdir, args.tiny)
                print(perf_counter() - PROCESS_START)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     tiny=args.tiny, started=PROCESS_START)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for job_id, reason in result["failures"].items():
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    print("\n".join(report(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
