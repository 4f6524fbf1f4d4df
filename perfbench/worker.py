"""Run one benchmark workload in this interpreter and write its measurements.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count pinned and ``src`` on ``PYTHONPATH``, so the process runs only this
workload and its peak RSS belongs to it. Steps:

1. write one `report` config per input (the workload's sub-seeds);
2. time set-up (import ``clustercal.cli``, load and validate a config);
3. run one smoke-size pipeline of the workload untimed, as warm-up;
4. run complete passes over the inputs through ``clustercal.cli.main``
   while at least half a pass fits in the measurement window, checking every pipeline's artifacts;
5. with ``--trace 1``, follow every untraced pipeline with a traced one of
   the same input and keep the spans, then write them to a trace file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import setup_probe  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _dir_bytes(path):
    if not os.path.isdir(path):      # the pipeline failed before persisting
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs pipelines, checks their artifacts and keeps the tallies."""

    def __init__(self, tmp):
        import clustercal.cli   # only after setup_probe.measure, which times this import
        self.cli = clustercal.cli
        self.tmp = tmp
        self.first = {}            # input key -> first digest, for determinism
        self.attempted = 0
        self.failed = 0
        self.checked_against_reference = 0
        self.problems = []

    def run(self, key, cfg_path, cfg, ref):
        """One checked pipeline; returns ((wall s, probe s before, probe s after), output dir)."""
        out = os.path.join(self.tmp, "out")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        before = speed.probe()
        t0 = time.perf_counter()
        rc = self.cli.main(["report", "--config", cfg_path, "--out", out])
        wall = time.perf_counter() - t0
        timing = (wall, before, speed.probe())
        bad = self._verify(key, rc, out, cfg, ref)
        if bad:
            self.failed += 1
            self.problems.extend(f"{key}: {b}" for b in bad[:3])
            del self.problems[MAX_PROBLEMS:]
        return timing, out

    def _verify(self, key, rc, out, cfg, ref):
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            got = check.digest(out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"unreadable artifacts: {exc!r}"]
        bad = check.invariants(got, cfg)
        if ref is not None:
            self.checked_against_reference += 1
            bad += check.compare(got, ref)
        if self.first.setdefault(key, got) != got:
            bad.append("differs from an earlier pipeline on the same input")
        return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tmp", required=True, help="scratch directory for configs and outputs")
    ap.add_argument("--result", required=True, help="where to write the measurements")
    ap.add_argument("--trace-file", help="where --trace 1 writes the spans")
    args = ap.parse_args(argv)

    inputs = []
    for sub in workloads.sub_seeds(args.workload, args.seed):
        cfg = workloads.config(args.workload, sub, args.smoke)
        path = os.path.join(args.tmp, f"input_{sub}.json")
        _write_json(path, cfg)
        inputs.append((str(sub), path, cfg))
    warm_cfg = workloads.config(args.workload, inputs[0][0], smoke=True)
    warm_path = os.path.join(args.tmp, "warmup.json")
    _write_json(warm_path, warm_cfg)

    setup = setup_probe.measure(inputs[0][1])

    runner = Runner(args.tmp)
    reference = {} if args.smoke else check.load_reference().get(args.workload, {})
    runner.run("warmup", warm_path, warm_cfg, None)

    tracer = layers = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        layers = []

    samples, traced, passes = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while True:
        p0 = time.perf_counter()
        for key, path, cfg in inputs:
            timing, _ = runner.run(key, path, cfg, reference.get(key))
            samples.append((key, *timing))
            if tracer is not None:
                tracer.reset()
                with tracer.installed():
                    timing, out = runner.run(key, path, cfg, reference.get(key))
                wall, before, after = timing
                m = spans.layer_metrics(tracer, speed.scaled(wall, before, after) / wall)
                m["harness.persist_bytes"] = _dir_bytes(out)
                traced.append((key, *timing))
                layers.append({"input": key, "metrics": m, "spans": tracer.dump()})
        passes += 1
        now = time.perf_counter()
        if now + (now - p0) / 2 > deadline:   # start another pass if half of it fits
            break

    result = {
        "env": environment(),
        "setup": setup,
        "samples": samples,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "checked_against_reference": runner.checked_against_reference,
    }
    if tracer is not None:
        names = layers[0]["metrics"].keys()
        per_layer = {n: statistics.median(p["metrics"][n] for p in layers) for n in names}
        # traced and untraced runs of one input follow each other, so pair them
        per_layer["bench.trace_overhead_s"] = statistics.median(
            speed.scaled(*t[1:]) - speed.scaled(*u[1:]) for t, u in zip(traced, samples))
        result["layers"] = per_layer
        result["traced_samples"] = traced
        if args.trace_file:
            _write_json(args.trace_file, {
                "workload": args.workload, "seed": args.seed, "env": result["env"],
                "per_layer": per_layer, "pipelines": layers})
    _write_json(args.result, result)


if __name__ == "__main__":
    main()
