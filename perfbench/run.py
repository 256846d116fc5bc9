#!/usr/bin/env python3
"""Build the critmem benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload par-radix --seed 1 --seconds 10 --trace 0

Workloads: par-radix, hetero-stream, replay-synth. `--trace 0` reports
the end-to-end metrics; `--trace 1` reports the per-layer split from a
traced replica of the same simulation. The last line of standard
output is the JSON result; the exit code is nonzero when the build
fails or any simulation fails its correctness checks.

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root).
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("par-radix", "hetero-stream", "replay-synth")


def text_of(cmd):
    """First line of `cmd`'s output, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if lines else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    if not (ROOT / "crates").is_dir():
        print("run.py: the simulator sources (crates/) are missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: cargo build failed", file=sys.stderr)
        return 2

    env["PERFBENCH_RUSTC"] = text_of(["rustc", "-V"])
    env["PERFBENCH_COMMIT"] = (
        text_of(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown"
    )
    sys.stdout.flush()
    run = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
