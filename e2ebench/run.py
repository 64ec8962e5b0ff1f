#!/usr/bin/env python3
"""Builds the vstress end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload repro-cold --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see e2ebench/README.md).
The build goes to $CARGO_TARGET_DIR, or e2ebench/target when it is unset.

The workbench derives each simulated branch address from `file!()` of the
branch site, so its tables depend on the source paths rustc sees. The
repository's own build passes workspace-relative paths; this package reaches
the workbench through a path dependency, for which cargo passes absolute
paths. Remapping the repository root away restores the workspace-relative
paths, so the tables here are byte-identical to `vstress-repro`'s.

The mapping is passed as a `target.<cfg>.rustflags` entry, which cargo joins
with the repository's own target flags (`.cargo/config.toml`), so the
benchmark is compiled for the same CPU features as `vstress-repro`. Setting
RUSTFLAGS would make cargo drop those entries; a RUSTFLAGS set by the caller
is kept and the mapping is added to it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    remap = f"--remap-path-prefix={ROOT}/="
    config = []
    if env.get("RUSTFLAGS"):
        env["RUSTFLAGS"] += " " + remap
    else:
        config = ["--config", f"target.'cfg(all())'.rustflags = [{json.dumps(remap)}]"]
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *config],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "vstress-e2ebench")
    sys.stdout.flush()
    # Replace this process: the benchmark is the only process left running.
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
