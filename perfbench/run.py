"""shapefit benchmark: train, reconstruct and mesh workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,reconstruct,mesh} --seed N \
        --seconds S --trace {0,1} [--profile {full,tiny}]

The program under test is imported from `src/`. The category prior that
`reconstruct` and `mesh` use is trained once per source tree by this
source tree's own `training.fit` (in a child process, so its memory does
not count in `peak_rss_mb`) and cached under `.bench_build/perfbench/`,
keyed by a hash of every file under `src/`; it is never reused by a
different source tree.

`--trace 0` times the workload untraced and prints the end-to-end metrics:

- op_ref: mean time per timed operation over the run, in units of a
  fixed NumPy reference kernel sampled about once a second during the
  same run (see reference.py), so that the machine's speed drift cancels.
  train: one `fit` epoch over four shapes; reconstruct: one
  `inference.reconstruct` call; mesh: one res-128 `marching_cubes` of an
  instance field. The wall seconds per operation (`op_s`) and the
  kernel's mean seconds are printed above the result line and kept in
  the report.
- setup_s: median seconds of one input set-up (sampling, rendering,
  occlusion, checkpoint load and save/load round trip), over several.
- peak_rss_mb: peak resident memory of the process, less the reference
  kernel's arrays.
- error: quality of the first pass. train: last-epoch weighted loss;
  reconstruct and mesh: chamfer x1e4 against analytic surface samples.

`--trace 1` runs the same first pass untraced, then traced, and prints the
per-layer metrics that BENCHMARK.json names: self time per public function
and per module, counts, the quality figures that have no end-to-end slot,
and the tracing overhead (traced minus untraced wall time). A metric that
the run never reaches reads 0; a traced function that the package no
longer defines makes the run incorrect.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full report with the
run header, failures, timing samples and (traced) spans is written to
`.bench_build/perfbench/reports/`.

Seeds: the run seed draws the train workload's point pools, every
inference random stream, the noisy-oracle direction, the mesh workload's
latent noise and the reconstruct evaluation samples. Use seed 1 while developing a change and seed 2 to check the
claim on held-out inputs.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# One BLAS thread unless the caller says otherwise, as in the reference
# kernel it is compared with: on two shared cores a second thread cost 65%
# more CPU time for 10% less wall time.
for _k in BLAS_ENV:
    os.environ.setdefault(_k, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("train", "reconstruct", "mesh"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build", "perfbench"))
    ap.add_argument("--build-prior", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.build_prior and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def code_digest(*tops):
    """sha256 over the relative path and content of every Python file under `tops`."""
    h = hashlib.sha256()
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_header(seed):
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": code_digest(SRC),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "seed": seed,
    }


def failure_record(op, exc):
    return {"op": op, "error": type(exc).__name__, "stage": getattr(exc, "stage", None), "message": str(exc)[:300]}


class Runner:
    """Attempts operations, verifies them and keeps the first pass's outputs."""

    def __init__(self, workload, check_failed):
        self.w = workload
        self.CheckFailed = check_failed
        self.attempted = 0
        self.failures = []
        self.passes = []  # per pass: seconds of each timed unit
        self.first = {}  # op -> output of the first successful attempt
        self.prints = {}  # op -> fingerprint of that output
        self.incorrect = []

    def attempt(self, op):
        self.attempted += 1
        try:
            out, samples = self.w.run(op)
            self.w.check(op, out)
        except self.CheckFailed as e:
            self.failures.append(failure_record(op, e))
            self.incorrect.append(f"{op}: {e}")
            return
        except Exception as e:  # one failed operation must not end the run
            rec = failure_record(op, e)
            rec["traceback"] = traceback.format_exc(limit=6)
            self.failures.append(rec)
            return
        self.passes[-1].extend(samples)
        fp = self.w.fingerprint(out)
        if op not in self.first:
            self.first[op] = out
            self.prints[op] = fp
        elif fp != self.prints[op]:
            self.incorrect.append(f"determinism: {op} gave a different output on a repeat")

    def one_pass(self):
        self.passes.append([])
        t0 = time.perf_counter()
        for op in self.w.ops():
            self.attempt(op)
        return time.perf_counter() - t0


def op_seconds(passes):
    """Mean seconds per timed unit over every (whole) pass of the run.

    This is total busy time over work done, as in shapes x epochs / fit
    time. On a shared two-core machine, whose speed swings by a quarter
    within seconds, the median of the units spread more from run to run;
    whole passes keep the reconstruct views of different cost in fixed
    proportion.
    """
    units = [x for p in passes for x in p]
    return statistics.fmean(units) if units else float("nan")


def timed_setups(workload, repeats, scratch):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup(scratch)
        times.append(time.perf_counter() - t0)
    return times


def check_record(path, quality):
    """Compare quality figures with an earlier run at the same seed and source."""
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != quality:
            return [f"determinism: quality differs from an earlier run at this seed: {earlier} vs {quality}"]
        return []
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(quality, f)
    os.replace(tmp, path)
    return []


def measure(runner, seconds, reference):
    """First pass, then whole passes while the next one still ends in time.

    The reference kernel is sampled throughout, and operations are timed
    on its clock, which leaves out the sampling itself.
    """
    runner.w.clock = reference.clock
    try:
        with reference:
            last = runner.one_pass()
            deadline = time.perf_counter() - last + seconds
            while time.perf_counter() + last <= deadline:
                last = runner.one_pass()
    finally:
        del runner.w.clock


def traced_pass(runner, workload, scratch, tracing, check_failed):
    """Repeat set-up, first pass and scoring under the tracer.

    Returns (tracer, untraced s, traced s, quality of the traced pass).
    """
    untraced_s = runner.one_pass()
    with tracing.Tracer() as tr:
        workload.setup(scratch)
        traced = Runner(workload, check_failed)
        traced_s = traced.one_pass()
        traced_quality = workload.quality(traced.first) if traced.first else None
    runner.attempted += traced.attempted
    runner.failures += traced.failures
    runner.incorrect += traced.incorrect
    for op, fp in traced.prints.items():
        if op in runner.prints and fp != runner.prints[op]:
            runner.incorrect.append(f"determinism: {op} differs between the untraced and traced pass")
    if not tr.nested():
        runner.incorrect.append("trace: spans do not nest")
    runner.incorrect += [f"trace: {target} not found" for target in tr.missing]
    return tr, untraced_s, traced_s, traced_quality


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shapefit", "__init__.py")):
        print(f"perfbench: no shapefit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import reference as ref
    import tracer as tracing
    import workloads as wl

    profile = wl.PROFILES[args.profile]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(args.build_dir, exist_ok=True)
    prior_path = os.path.join(args.build_dir, f"prior-{profile.name}-{profile.prior_key(code_digest(SRC))}.bin")
    if args.build_prior:
        wl.build_prior(profile, prior_path)
        return 0
    if args.workload != "train" and not os.path.exists(prior_path):
        subprocess.run([sys.executable, os.path.abspath(__file__), "--build-prior", "--profile", profile.name,
                        "--build-dir", args.build_dir], check=True, timeout=900)

    header = run_header(args.seed)
    header.update(workload=args.workload, profile=profile.name, seconds=args.seconds, trace=args.trace)
    workload = wl.WORKLOADS[args.workload](profile, args.seed, prior_path)
    scratch = os.path.join(args.build_dir, f"scratch-{os.getpid()}.bin")
    runner = Runner(workload, wl.CheckFailed)
    reference = ref.ReferenceClock()
    try:
        setup_times = timed_setups(workload, profile.setup_repeats if args.trace == 0 else 1, scratch)
        if args.trace == 0:
            measure(runner, args.seconds, reference)
        else:
            tr, untraced_s, traced_s, traced_quality = traced_pass(runner, workload, scratch, tracing,
                                                                   wl.CheckFailed)
    finally:
        for path in (scratch, scratch + ".json"):
            if os.path.exists(path):
                os.remove(path)

    quality, extra = workload.quality(runner.first) if runner.first else ({}, {})
    if args.trace == 1 and traced_quality != (quality, extra):
        runner.incorrect.append("determinism: the traced pass scored differently from the untraced one")
    try:
        wl.check_finite({**quality, **extra}, "quality")
    except wl.CheckFailed as e:
        runner.incorrect.append(str(e))
    if len(runner.first) < len(workload.ops()):
        runner.incorrect.append("no successful output for some operations")
    record_dir = os.path.join(args.build_dir, "quality")
    os.makedirs(record_dir, exist_ok=True)
    env_key = hashlib.sha256(json.dumps(header["blas_env"], sort_keys=True).encode()).hexdigest()[:8]
    code_key = code_digest(SRC, HERE)[:16]
    record = os.path.join(record_dir, f"{args.workload}-{profile.name}-seed{args.seed}-{code_key}-{env_key}.json")
    runner.incorrect += check_record(record, {**quality, **extra})

    report = {"header": header}
    if args.trace == 0:
        op_s = op_seconds(runner.passes)
        figures = {
            "op_ref": op_s / reference.mean_s(),
            "setup_s": statistics.median(setup_times),
            # the reference kernel's arrays are resident from start to end
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 - reference.nbytes) / 2**20,
            "error": quality.get("error", float("nan")),
        }
        report["op_s"] = op_s
        report["samples"] = {"op_s": runner.passes, "setup_s": setup_times, "op_unit": workload.unit,
                             "reference_s": reference.samples}
    else:
        figures = tr.metrics()
        figures.update(extra)
        figures.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                      "trace.overhead_s": traced_s - untraced_s})
        report["spans"] = tr.spans
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    values = {m["name"]: (figures.get(m["name"], 0.0), m["unit"]) for m in spec[kind]}
    # a figure that could not be measured reads 0; `correct` is then false
    metrics = {name: {"value": float(v) if np.isfinite(v) else 0.0, "unit": u} for name, (v, u) in values.items()}
    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    report.update(result=result, quality={**quality, **extra}, failures=runner.failures, incorrect=runner.incorrect)
    report_dir = os.path.join(args.build_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    report_path = os.path.join(report_dir, f"{args.workload}-{profile.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as f:
        json.dump(report, f, default=lambda o: o.item() if isinstance(o, np.generic) else str(o))

    print("header " + json.dumps(header, sort_keys=True))
    if args.trace == 0:
        print(f"wall s per {workload.unit}: {op_s:.6g}; reference kernel: {reference.mean_s():.6g} s, "
              f"{len(reference.samples)} samples")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    for rec in runner.failures:
        print(f"failed {rec['op']}: {rec['error']} (stage {rec['stage']}): {rec['message']}")
    for msg in runner.incorrect:
        print(f"incorrect {msg}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
