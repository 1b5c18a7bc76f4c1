#!/usr/bin/env python3
"""Build and run the OWL benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the Rust package in perfbench/ (its own workspace, with
a path dependency on the `owl` crate). The registry crates the `owl`
crates use resolve offline to the stand-ins under vendor/ through the
repository's `[patch.crates-io]` table, which this script reads from
the root Cargo.toml and hands to cargo as `--config` flags, so the
benchmark builds against whatever the checkout it sits in vendors.

Build output goes to $CARGO_TARGET_DIR (default: .bench_build under the
repository root). The last line the binary prints on stdout is the JSON
result object; its exit code is passed through.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BIN_NAME = "owl-perfbench"


def toml_str(s):
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def patch_flags():
    """`--config` flags carrying the repository's `[patch]` tables, with
    paths made absolute."""
    root_manifest = ROOT / "Cargo.toml"
    if not root_manifest.is_file():
        raise SystemExit(f"perfbench: no OWL workspace at {ROOT}")
    with open(root_manifest, "rb") as f:
        root = tomllib.load(f)
    flags = []
    for registry, patches in root.get("patch", {}).items():
        for name, spec in patches.items():
            for key, value in spec.items():
                if key == "path":
                    value = (ROOT / value).resolve()
                flags += ["--config", f"patch.{toml_str(registry)}.{toml_str(name)}.{key}={toml_str(value)}"]
    return flags


def cargo(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", *args, "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml"), *patch_flags()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def main(argv):
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    if argv[:1] == ["--self-test"]:
        return cargo(["test"], target_dir)
    if cargo(["build"], target_dir) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target_dir / "release" / BIN_NAME
    return subprocess.run([str(binary), *argv], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
