"""One pass of one workload, in a fresh process started by run.py.

The pass imports sepminor, builds the inputs, runs every instance once
(timed), then re-checks every output (untimed) and prints one JSON line:
set-up time, the time of each instance, the speed probe's median reading,
peak RSS, failures, the quality sums, the output digest and, for a traced
pass, the per-layer metrics.

    python3 bench/worker.py --workload NAME --seed N --t0 T [--trace] [--scale tiny]

`--t0` is the caller's perf_counter reading just before it started this
process, so set-up time counts interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import deque


class SpeedProbe:
    """A fixed pure-Python kernel, independent of sepminor, whose run time
    follows the machine's speed: a breadth-first component labelling of a
    fixed random graph on 20 000 vertices, the kind of work the graph layer
    does.  `sample` runs it (faster of two runs) when PERIOD_S has passed
    since the last run."""

    PERIOD_S = 0.25
    N = 20_000

    def __init__(self) -> None:
        rng = random.Random(0)
        adj: list[list[int]] = [[] for _ in range(self.N)]
        for v in range(self.N):
            for w in (rng.randrange(self.N), rng.randrange(self.N)):
                if w != v:
                    adj[v].append(w)
                    adj[w].append(v)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        start = time.perf_counter()
        adj, label = self.adj, [-1] * self.N
        for root in range(self.N):
            if label[root] != -1:
                continue
            label[root] = root
            queue = deque([root])
            while queue:
                for w in adj[queue.popleft()]:
                    if label[w] == -1:
                        label[w] = root
                        queue.append(w)
        return time.perf_counter() - start

    def sample(self) -> None:
        if time.perf_counter() - self._last > self.PERIOD_S:
            self.samples.append(min(self._kernel(), self._kernel()))
            self._last = time.perf_counter()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None, help="file for the span list")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import sepminor
    from sepminor import formats

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.bind_sepminor(tracer)
        tracer.active = True
    wl = workloads.build(args.workload, args.seed, args.scale)
    setup_s = time.perf_counter() - args.t0

    probe = SpeedProbe()
    results: dict[str, object] = {}
    errors: dict[str, str] = {}
    times: dict[str, float] = {}
    for inst in wl.instances:
        if tracer is not None:
            tracer.request = inst.name
        probe.sample()
        start = time.perf_counter()
        try:
            results[inst.name] = inst.solve(results)
        except Exception as exc:  # a failed instance is reported, not fatal
            errors[inst.name] = f"{type(exc).__name__}: {exc}"
        times[inst.name] = time.perf_counter() - start
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False

    records: dict[str, object] = {}
    failures: list[dict[str, str]] = []
    sep_size_sum = 0
    density_sum = 0
    for inst in wl.instances:
        if inst.name in errors:
            failures.append({"instance": inst.name, "kind": "raised", "reason": errors[inst.name]})
            records[inst.name] = {"error": errors[inst.name].split(":")[0]}
            continue
        try:
            out = inst.check(results[inst.name])
        except workloads.CheckFailed as exc:
            failures.append({"instance": inst.name, "kind": "wrong", "reason": str(exc)})
            records[inst.name] = {"wrong": str(exc)}
            continue
        records[inst.name] = out.record
        sep_size_sum += out.sep_size
        density_sum += out.density
    digest = hashlib.sha256(formats.dumps_canonical(records).encode()).hexdigest()

    report = {
        "setup_s": setup_s,
        "solve_s": sum(times.values()),
        "times": times,
        "probe_s": statistics.median(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wl.instances),
        "failed": len(failures),
        "failures": failures,
        "sep_size_sum": sep_size_sum,
        "density_lower_sum": float(density_sum),
        "digest": digest,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sepminor": os.path.dirname(sepminor.__file__),
        },
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer)
        report["unbound"] = tracer.unbound
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
