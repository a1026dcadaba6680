#!/usr/bin/env python3
"""Builds and runs the ffisafe benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an ffisafe source tree. The harness is the Cargo
package in this directory; it is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`) and run with its work files
under `.bench_work`. Its standard output is passed through: one
`metric <name> <value> <unit> n=<samples>` line per metric, then one JSON
line with `correct`, `attempted`, `failed` and `metrics`. That line is
checked against BENCHMARK.json: `--trace 0` must report every end-to-end
metric and `--trace 1` every per-layer metric, with the units listed
there. The exit code is the harness's (1 when a report is wrong), or 2
when the build, the tree or the result is not what BENCHMARK.json
describes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus its set-up and checks, and must end
# within 180 s in all.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def check_registry(bench, registry):
    """The registry must describe exactly the metrics and workloads
    BENCHMARK.json names, with the same units and directions."""
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        described = {
            m["name"]: (m["unit"], m["better"]) for m in registry[section]
        }
        if listed != described:
            fail(f"perfbench/registry.json {section} disagrees with BENCHMARK.json")
    workloads = {w["name"] for w in bench["workloads"]}
    if workloads != set(registry["workloads"]):
        fail("perfbench/registry.json workloads disagree with BENCHMARK.json")


def check_result(line, wanted):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the harness's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"the result reports {sorted(got)}, BENCHMARK.json lists {sorted(wanted)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    check_registry(bench, load_json(os.path.join(HERE, "registry.json")))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("run from the root of an ffisafe source tree: crates/ is missing")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("the harness does not build")

    binary = os.path.join(ROOT, target, "release", "ffisafe-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"the harness printed nothing (exit {run.returncode})")
    section = "per_layer" if args.trace else "end_to_end"
    check_result(lines[-1], {m["name"]: m["unit"] for m in bench[section]})
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
