#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <arch-inproc|serve-ci|figures> \
        --seed <n> --seconds <s> --trace <0|1>

The program is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target). Its full output, figure tables included, goes to
perfbench/out/<workload>-<seed>-trace<t>.log; this script forwards the
benchmark's own report lines and, last, the JSON result line. The exit
code is the benchmark's: non-zero when the build fails or an output check
fails.
"""

import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# Leaves room under the three-minute limit for the build and the checks.
RUN_TIMEOUT_S = 170


def arg(name, default):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    # Every SWAPCODES_* variable changes the measured program; the
    # benchmark clears them again itself and prints the effective values.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SWAPCODES_")}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "{}-{}-trace{}.log".format(
        arg("--workload", "none"), arg("--seed", "none"), arg("--trace", "none")))

    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = ""
    try:
        with open(log_path, "w") as log:
            for line in proc.stdout:
                log.write(line)
                if line.startswith("perfbench:"):
                    print(line, end="", flush=True)
                if line.strip():
                    last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code == 0 or last.startswith('{"correct": false'):
        print(last, end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
