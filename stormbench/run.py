#!/usr/bin/env python3
"""Build and run the stormtune campaign benchmark.

Run from the repository root:

    python3 stormbench/run.py --workload paper_bo --seed 1 --seconds 30 --trace 0
    python3 stormbench/run.py ... --record runs.jsonl     # keep the result
    python3 stormbench/run.py compare parent.jsonl change.jsonl

The first call configures and builds stormbench/ (the library sources in
src/ plus the harness) into .bench_build/. Each run prints human-readable
lines, a fingerprint line, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. See stormbench/README.md.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "stormbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"stormbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"stormtune sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))


def source_sha():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_head():
    """HEAD of the repository at ROOT; "unavailable" when ROOT is not the
    top of a git work tree (a plain source checkout)."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or \
            pathlib.Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def check_digest(key, digest):
    """Same source + workload + seed + length must give the same digest
    on every run in this checkout; returns an error message or None."""
    path = BUILD / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if key in seen and seen[key] != digest:
        return f"result digest {digest} differs from earlier run ({seen[key]})"
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return None


def run(args):
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    fingerprint = {}
    for line in lines[:-1]:
        if line.startswith("fingerprint:"):
            fingerprint = json.loads(line.split(":", 1)[1])
            fingerprint["git_head"] = git_head()
            fingerprint["source_sha"] = source_sha()
            line = "fingerprint:  " + json.dumps(fingerprint, sort_keys=True)
        print(line)
    key = "/".join(str(x) for x in (fingerprint.get("source_sha"),
                                     args.workload, args.seed, args.seconds,
                                     args.trace))
    error = check_digest(key, fingerprint.get("digest"))
    if error:
        print("CHECK FAILED: " + error)
        result["correct"] = False
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed,
                                  "seconds": args.seconds,
                                  "trace": bool(args.trace),
                                  "fingerprint": fingerprint,
                                  "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0 if result["correct"] and done.returncode == 0 else 1


def compare(args):
    build()
    done = subprocess.run([str(BINARY), "compare", "--benchmark",
                           str(ROOT / "BENCHMARK.json"), args.parent,
                           args.change], cwd=ROOT)
    return done.returncode


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent", help="result records of the parent commit")
        p.add_argument("change", help="result records of the change")
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["paper_bo", "ladder_long", "fleet"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", help="append the result record to this file")
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
