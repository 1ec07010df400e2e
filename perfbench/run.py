#!/usr/bin/env python3
"""Build the hpn-sim benchmark from source and run one workload.

    python3 perfbench/run.py --workload <train_pod|cluster_mix|serve_whatif> \
        --seed <n> --seconds <s> --trace <0|1> [--emit-outputs <path>]

Run from the repository root. The first run configures and builds a
Release tree under .bench_build/perfbench (the simulator libraries, the
`hpnsim_cli` daemon and the `perfbench` driver); later runs rebuild
incrementally. The driver's last stdout line is the JSON result; this
script checks that it names exactly the metrics BENCHMARK.json lists and
writes a fuller record (metadata, sample counts) to
.bench_build/perfbench/records/.
"""
import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench", "hpnsim_cli"])
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    tail = log.read_text(errors="replace").splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed (full log: {log})")
    return BUILD / "perfbench"


def source_id():
    """The git commit when run in a clone, plus a digest of the sources built."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*") if p.is_file())
    files.append(ROOT / "examples" / "hpnsim_cli.cpp")
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return f"{commit} sources:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["train_pod", "cluster_mix", "serve_whatif"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--emit-outputs", help="append this run's simulated outputs, in reference format")
    args = ap.parse_args()

    binary = build()
    records = BUILD / "records"
    records.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", str(HERE / "reference.txt"),
           "--record", str(records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
           "--commit", source_id()]
    if args.emit_outputs:
        cmd += ["--emit-outputs", args.emit_outputs]
    # The driver runs in its own process group, so a timeout also stops the
    # serve daemons it started; as their subreaper, this script then reaps
    # them too.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(listed):
        fail("driver metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(listed))}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
