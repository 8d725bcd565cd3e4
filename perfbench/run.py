#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/main.exe with
dune (the first build compiles the whole tree), runs it with the same
arguments, and passes its output through once the JSON result on the
last line carries exactly the metrics BENCHMARK.json declares for the
mode: every end_to_end metric with --trace 0, every per_layer metric
with --trace 1.  Any failure exits non-zero without a result line.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve workload forks a daemon and pool workers) and reap it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project and lib/ here: run from the repository root")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        die("missing --trace 0|1")
    traced = argv[argv.index("--trace") + 1] == "1"
    section = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    code, _ = run_group(
        # The shared dune cache lives outside the checkout: keep it off.
        ["dune", "build", "--root", ".", "--cache=disabled", "--display",
         "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        die("build failed (dune exit %d)" % code)

    code, out = run_group([EXE] + argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.decode().splitlines()
    if code != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        die("main.exe exited %d" % code, code)
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write("\n".join(lines) + "\n")
        die("no JSON result on the last line: %s" % e, 3)
    if got != declared:
        sys.stderr.write("\n".join(lines) + "\n")
        die(
            "metrics differ from BENCHMARK.json %s: missing %s, unexpected or "
            "mis-united %s"
            % (
                section,
                sorted(set(declared) - set(got)),
                sorted(k for k in got if declared.get(k) != got[k]),
            ),
            3,
        )
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
