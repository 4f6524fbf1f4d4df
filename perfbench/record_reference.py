"""Record the correctness reference: one artifact digest per workload input.

    python3 perfbench/record_reference.py --seeds 0-11 [--workload NAME ...]

Run from the repository root. For every run seed in the range, each of the
workload's inputs runs its `report` pipeline once, with the same pinned
environment as ``run.py``, and its digest (see ``check.py``) is merged into
``perfbench/reference.json``. Record from the commit whose outputs are the
ground truth; a change that alters the outputs on purpose re-records and
says why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from run import PINNED_ENV, ROOT, TMP_DIR  # noqa: E402


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seed_range, required=True, help="run seeds, e.g. 0-11")
    ap.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                    default=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    os.environ.update(PINNED_ENV)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import clustercal.cli as cli

    reference = check.load_reference()
    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=TMP_DIR)
    try:
        for name in args.workload:
            table = reference.setdefault(name, {})
            for seed in args.seeds:
                for sub in workloads.sub_seeds(name, seed):
                    cfg_path = os.path.join(tmp, "config.json")
                    cfg = workloads.config(name, sub)
                    with open(cfg_path, "w", encoding="utf-8") as fh:
                        json.dump(cfg, fh)
                    out = os.path.join(tmp, "out")
                    shutil.rmtree(out, ignore_errors=True)
                    if cli.main(["report", "--config", cfg_path, "--out", out]) != 0:
                        raise SystemExit(f"{name} input {sub}: pipeline failed")
                    got = check.digest(out)
                    bad = check.invariants(got, cfg)
                    if bad:
                        raise SystemExit(f"{name} input {sub}: {bad}")
                    table[str(sub)] = got
                print(f"{name} seed {seed}: {len(workloads.sub_seeds(name, seed))} inputs",
                      flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        names = sorted(reference)
        for i, name in enumerate(names):
            rows = sorted(reference[name].items(), key=lambda kv: int(kv[0]))
            fh.write(f' "{name}": {{\n')
            fh.write(",\n".join(f'  "{sub}": {json.dumps(d, sort_keys=True)}' for sub, d in rows))
            fh.write("\n }" + ("," if i < len(names) - 1 else "") + "\n")
        fh.write("}\n")


if __name__ == "__main__":
    main()
