#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root.  It builds the harness and the
`qvisor-cli` executable with dune, prints a stamp line (nproc, OCaml
version, load average, source revision), then runs the harness, whose
last line of standard output is the JSON result.  Workloads and metrics
are described in perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
CLI = os.path.join("_build", "default", "bin", "qvisor_cli.exe")
SOURCES = ["dune-project", "dune", "lib", "bin", "perfbench"]


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def ocaml_version():
    try:
        out = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig4-sweep", "fig4-audited", "serve-control"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced size")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/harness.exe", "./bin/qvisor_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": ocaml_version(),
        "loadavg": os.getloadavg(),
        "revision": source_revision(),
    }
    print("stamp:", " ".join(f"{k}={v}" for k, v in stamp.items()), flush=True)

    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--cli", CLI]
    # The harness on one CPU, the daemon and its calibrator on another: each
    # vCPU's speed drifts on its own, so calibration has to share the
    # daemon's.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[-1]})
        cmd += ["--daemon-cpu", str(cpus[0])]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd)

    def forward(signum, _frame):
        proc.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
