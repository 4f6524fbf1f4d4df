"""Set-up time of one CLI invocation, measured in a fresh interpreter.

Times importing ``clustercal.cli`` (numpy, scipy.stats and
scipy.cluster.hierarchy come with it) plus loading and validating a config,
which every `clustercal` command pays before its first stage. Run as a
script it prints the seconds, raw and scaled to reference speed (see
``speed.py``); ``worker.py`` calls ``measure`` first thing, so its own
start-up is one more sample.

    python3 perfbench/setup_probe.py CONFIG.json
"""

import sys
import time

import speed


def measure(config_path: str) -> tuple:
    """(wall seconds, wall seconds at reference speed) of the set-up."""
    before = speed.probe()
    t0 = time.perf_counter()
    import clustercal.cli  # noqa: F401
    from clustercal.harness import ExperimentConfig

    cfg = ExperimentConfig.from_json_file(config_path)
    cfg.validate()
    wall = time.perf_counter() - t0
    return wall, speed.scaled(wall, before, speed.probe())


if __name__ == "__main__":
    print(*map(repr, measure(sys.argv[1])))
