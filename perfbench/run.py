#!/usr/bin/env python3
"""bevss benchmark: one workload per process, a closed loop of passes.

Run from the repository root:

    python3 perfbench/run.py --workload one-box-cli --seed 0 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  one-box-cli    synth -> labels -> optimize -> eval on one-box via bevss.cli.main
  two-box-plain  synth.generate("two-box") -> optimize (plain Chamfer) -> evaluate
  gradcheck      gradcheck.run_all(seed, instances=20)

Passes run one after another in this process, all on the inputs of --seed,
while the next pass, if as long as the longest so far, would end within
--seconds (at least one pass). With --trace 0 the end-to-end metrics are
reported; with --trace 1 the first pass runs untraced, the later ones
traced, and the per-layer metrics are reported. Untraced passes run under
reference.Sampler, which gives cpu_rel; wall_s and cpu_s are printed but
not bounded (see perfbench/README.md). Every pass checks its
outputs; a failed check or stage makes the result incorrect. The last line
of standard output is one JSON object. Results, the environment and the
trace spans are also written under .perfbench_out/ in the repository root.
"""

import argparse
import collections
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("one-box-cli", "two-box-plain", "gradcheck")
SETUP_SAMPLES = 5
IMPORTS = "import numpy, scipy, scipy.ndimage, scipy.spatial, bevss, bevss.cli"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup_s():
    """Median time for a fresh interpreter to import numpy, scipy and bevss.

    One extra import runs first so that the bytecode cache is warm, as it is
    for a user after the first run.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); {IMPORTS}"
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit():
    """The commit of the checkout, read from .git without leaving it."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "BEVSS_THREADS": os.environ.get("BEVSS_THREADS", "<unset>"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return ru.ru_utime + ru.ru_stime


Pass = collections.namedtuple("Pass", "wall cpu slice_cpu traced log")


def run_passes(fn, args, workdir, tracer):
    """Closed loop of passes; returns a list of Pass.

    Each pass writes into a fresh directory. In a traced run the first pass
    is untraced, for the overhead figure. Untraced passes run under a
    reference.Sampler: their wall and CPU times exclude the slices, and
    slice_cpu is the mean CPU time of one slice.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer.run = len(passes)
        tracer.enabled = bool(args.trace and passes)
        passdir = os.path.join(workdir, f"pass{len(passes)}")
        sampler = reference.Sampler()
        with contextlib.nullcontext() if tracer.enabled else sampler:
            c0, t0 = cpu_seconds(), time.perf_counter()
            log = fn(args.seed, passdir, tracer)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            slice_wall, slice_cpu = sampler.totals()
        passes.append(Pass(wall - slice_wall, cpu - slice_cpu, sampler.slice_cpu(), tracer.enabled, log))
        tracer.enabled = False
        shutil.rmtree(passdir, ignore_errors=True)
        if log.failures:
            break
        if args.trace and len(passes) == 1:
            continue
        longest = max(p.wall for p in passes)
        if time.perf_counter() - start + longest > args.seconds:
            break
    return passes


def declared_units():
    """Metric name -> unit for each --trace value, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {t: {m["name"]: m["unit"] for m in spec[key]} for t, key in ((0, "end_to_end"), (1, "per_layer"))}


def print_passes(passes):
    for i, p in enumerate(passes):
        log = p.log
        mode = "traced" if p.traced else f"untraced, reference slice cpu {p.slice_cpu * 1e3:.4f} ms"
        iters = "" if log.iterations is None else f" iterations {log.iterations}"
        print(f"pass {i} ({mode}): wall {p.wall:.3f} s cpu {p.cpu:.3f} s{iters} ops {log.attempted} failed {len(log.failures)}")
        for name, digest in sorted(log.digests.items()):
            print(f"  sha256 {name} {digest}")
        for failure in log.failures:
            print(f"  FAILED {failure}")


def per_layer(tracer, passes):
    """Median over traced passes of each per-layer metric."""
    traced = [(i, p.wall) for i, p in enumerate(passes) if p.traced] or [(0, passes[0].wall)]
    per_pass = [tracer.run_metrics(i, wall) for i, wall in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for bucket in ("fast", "slow"):  # the same in every pass of a seed
        metrics[f"evaluation.epe_{bucket}_m"] = passes[0].log.epe.get(bucket, 0.0)
    untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.missing_targets"] = len(tracer.missing)
    for target in tracer.missing:
        print(f"trace: missing wrap target {target}; its spans read 0")
    for name in sorted(tracer.broken):
        print(f"trace: could not read the call of {name}; its counts read 0")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bevss", "__init__.py")):
        print(f"error: no bevss sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_units()
    units = declared[args.trace]
    setup_s = measure_setup_s()
    sys.path.insert(0, SRC)
    import bevss

    if not os.path.abspath(bevss.__file__).startswith(SRC + os.sep):
        print(f"error: imported bevss from {bevss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment(args)
    print("env: " + json.dumps(env))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(tracing.TARGETS)
    try:
        passes = run_passes(workloads.WORKLOADS[args.workload], args, workdir, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    print_passes(passes)

    logs = [p.log for p in passes]
    attempted = sum(log.attempted for log in logs)
    failures = [f for log in logs for f in log.failures]
    clean = [log for log in logs if not log.failures]
    if len(clean) > 1:
        attempted += 1
        if len({json.dumps(log.digests, sort_keys=True) for log in clean}) > 1:
            failures.append("outputs differ between passes of the same seed")

    untraced = [p for p in passes if not p.traced]
    e2e = {
        "setup_s": setup_s,
        "cpu_rel": statistics.median(p.cpu / p.slice_cpu for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"medians of {len(untraced)} untraced passes; setup_s: of {SETUP_SAMPLES} interpreters")
    print(f"wall_s = {statistics.median(p.wall for p in untraced):.9g} s")
    print(f"cpu_s = {statistics.median(p.cpu for p in untraced):.9g} s")
    for name, value in e2e.items():
        print(f"{name} = {value:.9g} {declared[0][name]}")
    for bucket, err in sorted(logs[0].epe.items()):
        print(f"epe_{bucket}_m = {err:.9g} m")
    print(f"ops_total = {logs[0].attempted} per pass, {attempted} in {len(passes)} passes")
    print(f"ops_failed = {len(failures)}")

    metrics = e2e
    if args.trace:
        metrics = per_layer(tracer, passes)
        tracer.save(os.path.join(OUT, f"spans-{tag}.npz"))
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    if args.trace:
        for name in units:
            print(f"{name} = {metrics[name]:.9g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": failures, "digests": logs[0].digests, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
