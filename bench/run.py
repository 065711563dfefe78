"""stabilitykit benchmark: drives the real CLI in-process on seeded inputs.

    python3 bench/run.py --workload score-640 --seed 1 --seconds 10 --trace 0

One client in one process sends the workload's requests in a closed loop,
each after the previous one returned, through ``stabilitykit.cli.main``.
Passes over the request list repeat until ``--seconds`` have passed (at
least one pass).  Request times are rescaled to a reference host speed
(refclock.py), and the import time to the speed of a reference import.
Every output is checked (checks.py).  The last stdout line
is the result: the end-to-end metrics with ``--trace 0``; with ``--trace 1``,
one untraced pass, then one traced pass that yields the per-layer metrics
(tracing.py) and the tracing overhead.  The line before it holds the
workload-specific figures and the environment record.

Exits 1 without a result when the checkout has no ``src/stabilitykit``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"  # one client, one core of work: keeps runs comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 2  # fresh-interpreter CLI imports on top of this process's own
# The reference import: the program's libraries alone, in fresh interpreters
# timed between the CLI probes.  Host drift slows it as it slows the CLI
# import, and no change to the program can move it.
REF_IMPORT = "import numpy, scipy.ndimage, scipy.optimize, scipy.special"
REF_IMPORT_S = 0.8  # reference-import CPU time that defines the reference speed
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t, c = time.perf_counter(), time.process_time(); {}; "
    "print(time.perf_counter() - t, time.process_time() - c)"
)

# Inputs, requests and the reason for each workload: workloads.py, README.md.
WORKLOADS = ("score-640", "train-128", "fit-eval-4k", "traj-homog-128")


def registered(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric in
    BENCHMARK.json, the one registry of metric names, units and directions."""
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """Import the CLI from this checkout's src/ only; returns the module
    and the import's (wall s, CPU s)."""
    if not (SRC / "stabilitykit" / "cli.py").is_file():
        sys.exit(f"bench: no stabilitykit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start, cpu = time.perf_counter(), time.process_time()
    import stabilitykit.cli as cli

    seconds = (time.perf_counter() - start, time.process_time() - cpu)
    if Path(cli.__file__).resolve().parent != SRC / "stabilitykit":
        sys.exit(f"bench: imported stabilitykit from {cli.__file__}, not {SRC}")
    return cli, seconds


def probe_imports(n: int) -> dict[str, list[tuple[float, float]]]:
    """(wall s, CPU s) of the reference import and of ``import
    stabilitykit.cli``, each in ``n`` fresh interpreters.  They alternate,
    and each interpreter is waited for before the next starts."""
    out = {"ref": [], "cli": []}
    for _ in range(n):
        for kind, stmt in (("ref", REF_IMPORT), ("cli", "import stabilitykit.cli")):
            done = subprocess.run(
                [sys.executable, "-I", "-c", IMPORT_PROBE.format(stmt), str(SRC)],
                capture_output=True, text=True, timeout=60, check=True,
            )
            wall, cpu = done.stdout.split()[-2:]
            out[kind].append((float(wall), float(cpu)))
    return out


def median_cpu(samples: list[tuple[float, float]]) -> float:
    return statistics.median(cpu for _, cpu in samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, first_import = import_cli()

    import json
    import resource

    import numpy as np

    import checks
    import refclock
    import tracing
    import workloads
    from stabilitykit import model

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        requests = workloads.prepare(args.workload, args.seed, workdir, model.load_checkpoint)
        setup = probe_imports(SETUP_PROBES)
        setup["cli"].insert(0, first_import)

        def send(argv):
            return cli.main(argv)  # looked up per call, so tracing sees it

        layer = None
        with refclock.RefClock() as clock:

            def one_pass(k):
                first = len(clock.samples)
                pairs = [(r, checks.run_request(send, r.argv, r.check, clock.now))
                         for r in requests(k)]
                return workloads.Pass(pairs, clock.factor(first))

            passes = []
            start = clock.now()
            while not passes or (not args.trace and clock.now() - start < args.seconds):
                passes.append(one_pass(len(passes)))
            measured = list(passes)
            if args.trace:
                tracer = tracing.Tracer(clock.now)
                with tracer.installed():
                    measured.append(one_pass(len(passes)))
                layer = tracer.report()
                layer["trace.overhead_frac"] = measured[-1].ref_s / passes[0].ref_s - 1.0

        results = [res for p in measured for _, res in p.pairs]
        failed = [res for res in results if not res.ok]
        for res in failed:
            print(f"bench: FAILED {' '.join(res.argv)}: {res.error}", file=sys.stderr)
        detail = workloads.detail(passes, results)
        e2e = {
            "setup_s": median_cpu(setup["cli"]) * REF_IMPORT_S / median_cpu(setup["ref"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ref_s": statistics.median(p.ref_s for p in passes),
        }
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "setup_wall_cpu_s": setup,
            "detail": dict(detail, **e2e),
            "env": workloads.environment(ROOT, SRC, BLAS_THREADS, np),
        }, sort_keys=True))
        if layer is not None:
            layer.update({k: detail[k] for k in workloads.DETAIL_METRICS})
        values = e2e if layer is None else layer
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in registered("per_layer" if args.trace else "end_to_end")}
        print(json.dumps({"correct": not failed, "attempted": len(results),
                          "failed": len(failed), "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
