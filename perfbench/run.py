"""Pipeline benchmark for clustercal.

Run from the repository root:

    python3 perfbench/run.py --workload shap_d4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one table
    python3 perfbench/run.py --smoke                     # tiny sizes: is every metric emitted?

Each workload runs in a fresh interpreter (``worker.py``) with the BLAS
thread count pinned to 1, which drives the full pipeline through
``clustercal.cli.main(["report", ...])`` on configs generated from the seed
and checks every pipeline's artifacts against a recorded reference.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced run, whose spans go to
``.perfbench_out/trace_<workload>_seed<seed>.json``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 2          # fresh interpreters besides the worker's own start-up
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
BASELINE = os.path.join(HERE, "baseline.json")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child_env():
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure(name, seed, seconds, trace, smoke=False, probes=SETUP_PROBES) -> dict:
    """Run one workload's worker, then the set-up probes; return the worker's result."""
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR)
    env = _child_env()
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--tmp", tmp, "--result", os.path.join(tmp, "result.json")]
        if smoke:
            cmd.append("--smoke")
        if trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-file", os.path.join(out_dir, f"trace_{name}_seed{seed}.json")]
        try:
            subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                           timeout=WORKER_TIMEOUT_S, check=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker did not finish within {WORKER_TIMEOUT_S} s")
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"{name}: worker exited with code {exc.returncode}")
        res = _read_json(os.path.join(tmp, "result.json"))

        first_input = os.path.join(tmp, f"input_{workloads.sub_seeds(name, seed)[0]}.json")
        res["setup_samples"] = [res["setup"]]
        for _ in range(probes):
            try:
                out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                                      first_input], env=env, cwd=ROOT, capture_output=True,
                                     text=True, timeout=PROBE_TIMEOUT_S, check=True)
            except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
                raise BenchError(f"{name}: set-up probe failed: {exc}")
            res["setup_samples"].append([float(v) for v in out.stdout.split()[-2:]])
        return res
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _scaled(samples):
    """Pipeline wall times at reference host speed (see speed.py)."""
    return [speed.scaled(wall, before, after) for _, wall, before, after in samples]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(name, seed, res, trace, spec, smoke=False) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    walls = [w for _, w, _, _ in res["samples"]]
    scaled = _scaled(res["samples"])
    q1, q3 = _quartiles(scaled)
    env = res["env"]
    print(f"workload {name}  seed {seed}  inputs {len(workloads.sub_seeds(name, seed))}  "
          f"passes {res['passes']}  ({workloads.why(name)})")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"numba {'importable' if env['numba'] else 'absent'}")
    if os.path.exists(BASELINE):
        base_numba = _read_json(BASELINE)["env"]["numba"]
        if base_numba != env["numba"]:
            msg = (f"WARNING: numba is {'importable' if env['numba'] else 'absent'} here but "
                   f"{'importable' if base_numba else 'absent'} in the baseline; shap_values "
                   "switches to its JIT kernel when numba is importable and rows x trees "
                   "> 20,000, so TreeSHAP numbers are not comparable")
            print("  " + msg)
            print(msg, file=sys.stderr)
    print(f"  correctness: {res['attempted'] - res['failed']}/{res['attempted']} pipelines "
          f"passed, {res['checked_against_reference']} compared with the recorded reference")
    for p in res["problems"]:
        print(f"  FAILED {p}")

    if not trace:
        setup_raw = [raw for raw, _ in res["setup_samples"]]
        values = {
            "pipeline_s": statistics.median(scaled),
            "setup_s": statistics.median(s for _, s in res["setup_samples"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "pipeline_s": f"median of {len(scaled)} pipelines, quartiles {q1:.4f} .. {q3:.4f}; "
                          f"raw wall median {statistics.median(walls):.4f}",
            "setup_s": f"median of {len(setup_raw)} fresh interpreters; "
                       f"raw wall median {statistics.median(setup_raw):.4f}",
            "peak_rss_mb": "ru_maxrss of the worker process",
        }
        declared = spec["end_to_end"]
    else:
        values = res["layers"]
        notes = {}
        declared = spec["per_layer"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<34} {failed_frac:>14.6g} {'1':<6} "
          f"{res['failed']} of {res['attempted']} pipelines")
    if trace and not smoke:
        _print_shares(name, res)
    return metrics


def _print_shares(name, res):
    """Share of the traced pipeline per layer, against the workload's expectation."""
    layers = res["layers"]
    traced = statistics.median(_scaled(res["traced_samples"]))
    times = {k: v for k, v in layers.items() if k.endswith("_s") and not k.startswith("bench.")}
    top = sorted(times, key=times.get, reverse=True)[:3]
    print("  largest layers: " + ", ".join(
        f"{k} {100 * times[k] / traced:.1f}%" for k in top) + f" of {traced:.4f} s traced (scaled)")
    expect, floor = workloads.DOMINANT[name]
    share = times[expect] / traced
    ok = top[0] == expect and share >= floor
    print(f"  seed-commit expectation: {expect} is the largest layer with at least "
          f"{100 * floor:.0f}% -> {'holds' if ok else 'DOES NOT HOLD'} ({100 * share:.1f}%)")


def _save(path, name, seed, res, trace, metrics):
    saved = _read_json(path) if os.path.exists(path) else {"workloads": {}}
    saved["env"] = res["env"]
    entry = saved["workloads"].setdefault(name, {})
    entry["seed"] = seed
    if trace:
        entry["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    else:
        entry["end_to_end"] = {k: v["value"] for k, v in metrics.items()}
        entry["pipeline_quartiles_s"] = list(_quartiles(_scaled(res["samples"])))
        entry["pipeline_raw_wall_median_s"] = statistics.median(t[1] for t in res["samples"])
        entry["pipelines"] = len(res["samples"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="clustercal pipeline benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement window per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, both trace modes: check that every metric is emitted")
    ap.add_argument("--save", help="merge this run's metrics into a JSON summary file")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "clustercal", "cli.py")):
        print(f"perfbench: no clustercal sources under {ROOT}/src; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = _read_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = (sorted(workloads.WORKLOADS) if args.workload in (None, "all")
             else [args.workload])
    runs = [(n, t) for n in names for t in ((0, 1) if args.smoke else (args.trace,))]
    attempted = failed = 0
    metrics = {}
    try:
        for name, trace in runs:
            if args.smoke:
                res = measure(name, args.seed, 0, trace, smoke=True, probes=0)
            else:
                res = measure(name, args.seed, seconds, trace)
            got = summarize(name, args.seed, res, trace, spec, args.smoke)
            if args.save:
                _save(args.save, name, args.seed, res, trace, got)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = "" if len(runs) == 1 else f"{name}.{'trace.' if trace else ''}"
            metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.smoke:
        print(f"smoke: all {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics emitted for {len(names)} workloads")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
