#!/usr/bin/env python3
"""Check that `pb` answers every benchmark job here as another checkout does.

For each seed, the jobs of the benchmark's ``uniform`` and ``clustered``
workloads are built by this checkout's ``perfbench/workloads.py`` into a
temporary directory. Every job, and ``pb repro``, then runs through both
checkouts' ``cli.main`` in one process, each code imported under its own
package name as ``ab_rules.load`` does. Prints each job whose exit code,
stdout or stderr differs, then the number of jobs compared; exits 1 on any
difference.

Example:
    python scripts/compare_outputs.py ../pbprop-parent --seeds 1 3
"""
import argparse
import importlib
import io
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
        jobs = [("repro", ("repro",))]
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                built = workloads.build(name, seed, Path(tmp) / f"{name}-{seed}")
                jobs += [(f"{name} seed {seed} {job.id}", job.argv) for job in built.jobs]
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
