"""sepminor benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a sepminor checkout:

    python3 bench/run.py --workload sparse-separators --seed 1 --seconds 20 --trace 0

Workloads (workloads.py says why each was chosen): sparse-separators,
minor-density, exact-small.

Each pass runs in a fresh process (worker.py) with BLAS and OpenMP pinned to
one thread.  Passes repeat until their summed solve time reaches
`--seconds`, and at least MIN_PASSES times.  Every pass re-checks every
output, and all passes of a run must produce the same output digest.

`--trace 0` reports the end-to-end metrics.  On a shared host the speed of
the machine drifts by tens of percent over minutes, so each pass also times
a fixed pure-Python probe (worker.SpeedProbe) every quarter second, and
times are divided by their pass's median probe reading and multiplied by
REFERENCE_PROBE_S: seconds at the reference machine's speed.  solve_s sums,
over the instances, each instance's fastest scaled time among the passes;
setup_s and peak_rss_mb are medians over the passes.  The report also
prints the raw times.

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics (raw times, medians over the traced passes; counts must
repeat exactly) plus the tracing overhead: the raw solve time, fastest of
each instance, of the traced passes minus that of the untraced passes.  The
spans of each traced pass go to .bench_traces/.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  `--scale tiny` runs miniature
inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402

WORKLOADS = ("sparse-separators", "minor-density", "exact-small")
END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("sep_size_sum", "vertices"),
    ("density_lower_sum", "edges/vertex"),
]
# The probe's time on an idle core of the machine the benchmark was written
# on: a 2-vCPU VM at 2.1 GHz running CPython 3.11.7.
REFERENCE_PROBE_S = 0.010
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
DEADLINE_S = 150.0  # start no pass that might end after this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Starts worker passes for one workload and seed, within the deadline."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.started = time.perf_counter()
        self.slowest = 0.0
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = "1"
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def time_left(self) -> bool:
        return time.perf_counter() - self.started + self.slowest <= DEADLINE_S

    def run(self, *flags: str) -> dict:
        t0 = time.perf_counter()
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--scale", self.args.scale,
            "--t0", repr(t0),
            *flags,
        ]
        limit = DEADLINE_S + 20.0 - (t0 - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass did not finish within {limit:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"a pass exited with {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"a pass printed nothing:\n{proc.stderr}")
        self.slowest = max(self.slowest, time.perf_counter() - t0)
        return json.loads(lines[-1])


def _measure(runner: Runner, args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced pass reports.

    A traced run alternates untraced and traced passes, so both sides of the
    overhead see the same drift of the host's speed.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    trace_dir = os.path.join(runner.root, ".bench_traces")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while not plain or runner.time_left():
        runs = traced if args.trace else plain
        if len(runs) >= need and sum(r["solve_s"] for r in plain + traced) >= args.seconds:
            break
        if args.trace and len(traced) < len(plain):
            out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-pass{len(traced)}.tsv")
            traced.append(runner.run("--trace", "--trace-out", out))
        else:
            plain.append(runner.run())
    return plain, traced


def _fastest_sum(passes: list[dict], scaled: bool = True) -> float:
    """Sum over instances of each instance's fastest time among `passes`,
    in units of its pass's median probe reading when `scaled`.

    Interference from other work on the host only ever slows an instance
    down, so the fastest of several fresh-process passes is the steadiest
    estimate of its cost; dividing by the probe removes the host's slow
    drift between runs.
    """
    return sum(
        min(r["times"][name] / (r["probe_s"] if scaled else 1.0) for r in passes)
        for name in passes[0]["times"]
    )


def _layer_metrics(plain: list[dict], traced: list[dict], problems: list[str]) -> dict[str, float]:
    counts = {name for name, unit in PER_LAYER if unit != "s"}
    first = traced[0]["layers"]
    for r in traced[1:]:
        moved = sorted(name for name in counts if r["layers"][name] != first[name])
        if moved:
            problems.append(f"counts differ between traced passes: {moved}")
    metrics = {
        name: first[name] if name in counts else statistics.median(r["layers"][name] for r in traced)
        for name, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = _fastest_sum(traced, False) - _fastest_sum(plain, False)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sepminor", "__init__.py")):
        print("error: no sepminor sources at src/sepminor; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        plain, traced = _measure(Runner(root, args), args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = plain + traced
    measured = traced if args.trace else plain
    digests = {r["digest"] for r in every}
    problems = []
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {sorted(digests)}")
    wrong = [f for r in every for f in r["failures"] if f["kind"] == "wrong"]
    if wrong:
        problems.append(f"{len(wrong)} outputs failed the re-check")
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)

    if args.trace:
        if not traced:
            print("error: no traced pass finished before the deadline", file=sys.stderr)
            return 1
        metrics = _layer_metrics(plain, traced, problems)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": REFERENCE_PROBE_S * statistics.median(r["setup_s"] / r["probe_s"] for r in plain),
            "solve_s": REFERENCE_PROBE_S * _fastest_sum(plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_share": 1.0 - failed / attempted,
            "sep_size_sum": plain[0]["sep_size_sum"],
            "density_lower_sum": plain[0]["density_lower_sum"],
        }
        units = dict(END_TO_END)

    versions = every[0]["versions"]
    print(f"# sepminor benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print(f"# commit={_git_commit(root)} nproc={os.cpu_count()} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} threads=1 (BLAS/OpenMP)")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{every[0]['attempted']} instances per pass")
    print(f"# raw solve time, fastest of each instance: {_fastest_sum(measured, False):.4f} s; "
          f"raw set-up time, median: {statistics.median(r['setup_s'] for r in measured):.4f} s; "
          f"median probe reading {statistics.median(r['probe_s'] for r in measured):.5f} s")
    print(f"# digest sha256:{every[0]['digest']} "
          f"({'identical in all passes' if len(digests) == 1 else 'DIFFERS between passes'})")
    seen = set()
    for r in every:
        for f in r["failures"]:
            key = (f["instance"], f["kind"], f["reason"])
            if key not in seen:
                seen.add(key)
                print(f"# failed instance ({f['kind']}): {f['instance']}: {f['reason']}")
    unbound = sorted({name for r in traced for name in r["unbound"]})
    if unbound:
        print(f"# not traced, missing in sepminor: {', '.join(unbound)}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
