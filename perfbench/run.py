"""binrender benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bank-narrow --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; binrender is imported from its
``src/``. Every role runs in a fresh interpreter started from here, with
BLAS/OpenMP pinned to one thread before numpy is imported:

1. ``gen`` writes the seeded inputs (timed apart as ``gen_s``);
2. ``setup`` is repeated so that ``setup_s`` is a median of up to SETUPS
   samples (fewer when set-up is slow, see EXTRA_SETUP_S);
3. ``measure`` sets up once more, then runs the timed closed loop for
   ``--seconds`` (``--trace 0``), or the traced run (``--trace 1``).

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it records the environment and
the check results. Outputs go to .perfbench/<workload>-s<seed>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Set-up runs up to 3 times; an extra set-up is skipped once the extra ones
# have taken EXTRA_SETUP_S in all, which bounds the length of a run.
SETUPS = 3
EXTRA_SETUP_S = 8.0
TIME_LIMIT_S = 170.0
WORKLOADS = ("bank-narrow", "bank-wide", "head-track")

# Per-workload meaning of the two timed operations; see perfbench/README.md.
OPERATIONS = {
    "bank-narrow": ("filters, 1 worker", "filters, 2 workers"),
    "bank-wide": ("filters, 1 worker", "apply_filter_bank, 1 s of 64-channel audio"),
    "head-track": ("rotation-only update", "move update"),
}


class BenchError(Exception):
    pass


def _quantile(samples, q):
    """Quantile with linear interpolation between order statistics."""
    if len(samples) < 2:
        raise BenchError(f"need at least 2 samples, got {len(samples)}")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _environ(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("BINRENDER_WORKERS", None)
    return env


class Roles:
    """Starts worker roles one at a time and waits for each to end."""

    def __init__(self, root, workload, out):
        self.root = root
        self.workload = workload
        self.out = out
        self.env = _environ(root)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def run(self, mode, *extra):
        self.count += 1
        result = self.out / f"result_{self.count}_{mode}.json"
        log = self.out / f"log_{self.count}_{mode}.txt"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.workload,
               "--dir", str(self.out), "--result", str(result), *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached")
        with open(log, "w") as f:
            t0 = time.monotonic_ns()
            try:
                proc = subprocess.run(cmd + ["--t0", str(t0)], cwd=self.root, env=self.env,
                                      stdout=f, stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} timed out; see {log}") from exc
            elapsed = (time.monotonic_ns() - t0) / 1e9
        if proc.returncode != 0:
            raise BenchError(f"{mode} exited with {proc.returncode}; see {log}")
        return json.loads(result.read_text()) if mode != "gen" else elapsed


def _declared(root):
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def bench(root, workload, seed, seconds, trace):
    if not (root / "src" / "binrender" / "__init__.py").is_file():
        raise BenchError(f"no binrender sources under {root / 'src'}")
    end_to_end, per_layer = _declared(root)
    for old in (root / ".perfbench").glob(f"{workload}-s*"):
        shutil.rmtree(old)
    out = root / ".perfbench" / f"{workload}-s{seed}"
    out.mkdir(parents=True)
    roles = Roles(root, workload, out)

    gen_s = roles.run("gen", "--seed", str(seed))
    setups = []
    while not trace and len(setups) < SETUPS - 1 and sum(setups) < EXTRA_SETUP_S:
        setups.append(roles.run("setup")["setup_s"])
    res = roles.run("measure", "--seconds", str(seconds), *(["--trace"] if trace else []))
    setups.append(res["setup_s"])

    op, op2 = res["samples"]["op"], res["samples"]["op2"]
    if trace:
        values = res["layers"]
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p90_ms": _quantile(op, 90),
            "op2_p90_ms": _quantile(op2, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = end_to_end
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    record = {
        "workload": workload, "seed": seed, "trace": trace, "env": res["env"],
        "gen_s": gen_s, "setup_samples_s": setups,
        "operations": dict(zip(("op", "op2"), OPERATIONS[workload])),
        "samples": {"op": len(op), "op2": len(op2)},
        "checks": res["checks"],
        "fail_ratio": res["failed"] / res["attempted"],
    }
    if trace:
        record["spans"] = res["spans"]
    else:
        record["measured_s"] = res["measured_s"]
    print(json.dumps(record))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="binrender benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
