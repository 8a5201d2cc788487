"""radiant benchmark: a closed-loop, single-client job runner.

Run from the repository root (radiant is imported from ./src):

    python3 perfbench/run.py --workload scene --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each job of a workload is generated from (seed, job index) and written as
input files, run through ``radiant.cli.dispatch`` in process (plus library
calls where a step has no CLI), and its outputs are checked; jobs run back to
back until ``--seconds`` of loop time have passed. Generation and checks are
not part of a job's time. Job 0 is a warm-up and is not timed. End-to-end
times are scaled to a nominal host by a reference task timed between steps
(see ``Host``). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every job twice, traced and untraced, and reports the
per-layer metrics from spans (see spans.py) plus the tracing overhead. The
program runs in its default configuration: RADIANT_THREADS is left as found
and recorded.

Standard output: one line per metric (name, value, unit), one ``report``
JSON line with machine facts and ungated figures, and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_radiant() -> None:
    """Import radiant from ./src, never from anywhere else."""
    if not (SRC / "radiant" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/radiant under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import radiant

    if Path(radiant.__file__).resolve().parent != (SRC / "radiant").resolve():
        sys.exit(f"perfbench: radiant imported from {radiant.__file__}, not ./src")


# ---------------------------------------------------------------------------
# facts


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in
                  _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
                 platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "radiant").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RADIANT_THREADS": os.environ.get("RADIANT_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_commit": git_commit(),
        "src_radiant_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement


# A host whose CPU is shared runs in slow and fast spells, about 1.35-1.6x
# apart on the machine the bounds were set on; the two speeds alternate
# within seconds and the share of slow time shifts over minutes, longer than
# a run. So the runner times a fixed reference task (the same pure-Python and
# numpy work every time, no radiant code) between every two measured steps
# and scales the run's times by REF_NOMINAL_S / the mean reference time: the
# gated times are seconds on a host that runs the reference in REF_NOMINAL_S.
# A program change cannot move the reference, so it cancels out of a
# comparison of two programs; the raw times are in the report. A run whose
# first and second half of reference times differ by more than SPELL_RATIO
# crossed a spell boundary and is flagged (reported, never gated).
REF_NOMINAL_S = 0.025
SPELL_RATIO = 1.2
_REF_ARRAY = None


def _reference_once() -> float:
    global _REF_ARRAY
    import numpy as np

    if _REF_ARRAY is None:
        _REF_ARRAY = np.random.default_rng(0).random(100_000)
    t0 = time.perf_counter()
    rows = ["%.6f %.6f %.6f" % (i * 0.5, i * 0.25, i * 0.125) for i in range(6_000)]
    table = {row: i for i, row in enumerate(rows)}
    acc = 0.0
    for row in rows:
        acc += sum(float(x) for x in row.split()) + table[row]
    b = _REF_ARRAY
    for _ in range(50):
        b = np.sqrt(b * b + 1.0)
    np.sort(b)
    return time.perf_counter() - t0


class Host:
    """Reference times taken between the measured steps of one run."""

    def __init__(self):
        self.refs: list[float] = []

    def mark(self) -> None:
        """One reference time: the median of three runs of the task."""
        self.refs.append(statistics.median(_reference_once() for _ in range(3)))

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.refs)

    def report(self) -> dict:
        refs = self.refs
        half = max(1, len(refs) // 2)
        first, second = statistics.median(refs[:half]), statistics.median(refs[-half:])
        ratio = max(first, second) / min(first, second)
        return {"ref_ms": [r * 1e3 for r in refs], "ref_ms.mean": statistics.fmean(refs) * 1e3,
                "ref_nominal_ms": REF_NOMINAL_S * 1e3, "scale": self.scale(),
                "halves_ratio": ratio, "crossed_spell": ratio > SPELL_RATIO}


class Setup:
    """Wall time of a fresh interpreter importing radiant.cli. The first
    import only warms the caches and is not measured. Samples and their
    reference times run on one CPU, so both see the same core."""

    PER_SIDE = 3  # samples taken before the job loop, and again after it

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self._time_import()
        self.samples: list[float] = []
        self.host = Host()

    def _time_import(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import radiant.cli"], env=self._env,
                       cwd=ROOT, check=True)
        return time.perf_counter() - t0

    def sample(self) -> None:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})  # the child inherits it
        try:
            self.host.mark()
            for _ in range(self.PER_SIDE):
                self.samples.append(self._time_import())
                self.host.mark()
        finally:
            os.sched_setaffinity(0, cpus)


class Loop:
    """Runs jobs of one workload and keeps each run's time, CPU and outcome."""

    def __init__(self, name: str, seed: int, sizes, run_dir: Path):
        import jobs

        self.workload = jobs.WORKLOADS[name]
        self.seed, self.sizes, self.run_dir = seed, sizes, run_dir
        self.failures: list[str] = []
        self.attempted = 0

    def prepare(self, index: int):
        d = self.run_dir / f"job{index}"
        (d / "in").mkdir(parents=True)
        return d, self.workload.make(d / "in", self.seed, index, self.sizes)

    def run(self, d: Path, index: int, job, tag: str, tracer=None):
        """One run of a prepared job: (ok, wall s, cpu s)."""
        import jobs

        out = d / f"out-{tag}"
        out.mkdir()
        self.attempted += 1
        result, error = None, None
        if tracer:
            tracer.install(index)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = self.workload.run(d / "in", out, job, self.sizes)
        except Exception as e:  # a failing job is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.uninstall()
        if error is None:
            try:
                self.workload.check(d / "in", out, job, result, self.sizes)
            except jobs.CheckFailed as e:
                error = f"check: {e}"
            except Exception as e:  # an output that does not even parse
                error = f"check: {type(e).__name__}: {e}"
        if error:
            self.failures.append(f"job {index} ({tag}): {error}")
        return error is None, wall, cpu


class Deadline:
    """Admits the next loop iteration only if an iteration of median length
    still ends within the budget, so a run lasts about --seconds. The first
    two iterations (a warm-up and one measured) are always admitted."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = None
        self.lengths: list[float] = []

    def next(self) -> bool:
        now = time.perf_counter()
        if self.start is None:
            self.start = self.last = now
            return True
        self.lengths.append(now - self.last)
        self.last = now
        return (len(self.lengths) < 2
                or now - self.start + statistics.median(self.lengths) <= self.seconds)


def tail_percentile(values: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    import numpy as np

    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            best = {"p": p, "value": float(np.percentile(values, p))}
    return best


def _end_to_end(setup: list, steps: list, setup_scale=1.0, loop_scale=1.0) -> dict:
    """The gated figures from set-up samples and (ok, job wall, job cpu,
    iteration wall) steps, times multiplied by their host scale. An
    iteration generates the job's inputs, runs it, checks its outputs and
    cleans up."""
    ok = [s for s in steps if s[0]]
    return {
        "setup_s": statistics.median(setup) * setup_scale,
        "job_s.p50": statistics.median(s[1] for s in ok or steps) * loop_scale,
        "jobs_per_s": len(ok) / (sum(s[3] for s in steps) * loop_scale),
        "cpu_s_per_job": statistics.median(s[2] for s in steps) * loop_scale,
    }


def run_untraced(loop: Loop, seconds: float):
    # set-up is sampled before and after the job loop, so a slow spell of the
    # machine at one end does not land on all of the samples
    setup = Setup()
    setup.sample()
    host = Host()
    steps = []
    deadline = Deadline(seconds)
    index = 0
    while deadline.next():
        t0 = time.perf_counter()
        d, job = loop.prepare(index)
        ok, wall, cpu = loop.run(d, index, job, "plain")
        shutil.rmtree(d)
        # job 0 warms the program's lazy imports and caches; it is run and
        # checked like any other but not timed
        if index > 0:
            steps.append((ok, wall, cpu, time.perf_counter() - t0))
        host.mark()
        index += 1
    setup.sample()
    metrics = _end_to_end(setup.samples, steps, setup.host.scale(), host.scale())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [s[1] for s in steps if s[0]] or [s[1] for s in steps]
    extra = {"raw": _end_to_end(setup.samples, steps), "setup_s.all": setup.samples,
             "job_s.samples": len(walls), "job_s.all": [s[1] for s in steps],
             "job_s.tail": tail_percentile(walls), "host": host.report(),
             "setup_host": setup.host.report(),
             "failed_frac": len(loop.failures) / loop.attempted,
             "loop_wall_s": deadline.last - deadline.start}
    return metrics, extra


def run_traced(loop: Loop, seconds: float, trace_path: Path):
    import spans

    tracer = spans.Tracer()
    traced, plain, per_job = {}, {}, {}
    deadline = Deadline(seconds)
    index = 0
    while deadline.next():
        d, job = loop.prepare(index)
        # alternate the order inside each pair so neither side always runs warm
        for tag in (("traced", "plain") if index % 2 == 0 else ("plain", "traced")):
            ok, wall, _ = loop.run(d, index, job, tag, tracer if tag == "traced" else None)
            (traced if tag == "traced" else plain)[index] = (ok, wall)
        shutil.rmtree(d)
        index += 1

    by_job: dict = {}
    for s in tracer.spans:
        by_job.setdefault(s[2], []).append(s)
    stale = [f"trace target {t} not found" for t in tracer.missing]
    for j, job_spans in sorted(by_job.items()):
        per_job[j], failures = spans.job_layers(job_spans)
        failures += stale + [f"layer {k} read 0" for k in loop.workload.layers
                             if not per_job[j][k]]
        if failures and traced[j][0]:  # one failure per run at most
            loop.failures.append(f"job {j} (traced): {'; '.join(failures)}")
    tracer.write(trace_path)

    pairs = [j for j in traced if traced[j][0] and plain[j][0]]
    overhead = [traced[j][1] - plain[j][1] for j in pairs] or [0.0]
    metrics = spans.layer_metrics(per_job)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    extra = {"pairs": len(traced), "traced_job_s.p50": statistics.median(
                 w for _, w in traced.values()),
             "untraced_job_s.p50": statistics.median(w for _, w in plain.values()),
             "missing_trace_targets": tracer.missing, "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, extra


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes):
    """(metrics, failures, attempted, report) for one run."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    loop = Loop(workload, seed, sizes, run_dir)
    try:
        if trace:
            metrics, extra = run_traced(loop, seconds, WORK / f"trace-{workload}.tsv.gz")
        else:
            metrics, extra = run_untraced(loop, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "closed_loop_clients": 1, **extra, "failures": loop.failures[:10],
              "facts": machine_facts()}
    return metrics, loop.failures, loop.attempted, report


def result_object(spec_metrics: list, metrics: dict, failures: list, attempted: int) -> dict:
    """The result line: the metrics BENCHMARK.json lists, with its units."""
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec_metrics}}


def smoke(spec: dict) -> int:
    """Tiny runs of every workload, both modes: every metric named in
    BENCHMARK.json must be emitted, every check must pass, and the counts of
    two traced runs of one seed must agree exactly."""
    import jobs
    import spans

    ok = True
    for w in spec["workloads"]:
        counts = []
        for trace, key in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
            metrics, failures, _, _ = measure(w["name"], 1, 0.0, trace, jobs.SMOKE)
            counts.append({k: metrics.get(k) for k in spans.COUNT_KEYS})
            missing = [m["name"] for m in spec[key] if m["name"] not in metrics]
            passed = not failures and not missing
            ok &= passed
            print(f"smoke {w['name']} trace={int(trace)}: {'ok' if passed else 'FAIL'} "
                  f"missing={missing} failures={failures[:3]}")
        drift = [k for k in spans.COUNT_KEYS if counts[1][k] != counts[2][k]]
        ok &= not drift
        print(f"smoke {w['name']} counts repeat: {'ok' if not drift else 'FAIL'} {drift}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("scene", "surface", "evaluate"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = p.parse_args(argv)
    import_radiant()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        p.error("--workload is required")
    import jobs

    metrics, failures, attempted, report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), jobs.FULL)
    result = result_object(spec["per_layer" if args.trace else "end_to_end"],
                           metrics, failures, attempted)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
