#!/usr/bin/env python3
"""Build and run the H2O-NAS benchmark.

Run from the repository root:

    python3 h2obench/run.py --workload surrogate_burst --seed 1 \
        --seconds 10 --trace 0
    python3 h2obench/run.py --selftest

The first run configures and builds h2obench/CMakeLists.txt (the library
sources under src/ plus the benchmark driver) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. The
last line of standard output is the result object; build logs and the
human-readable report go to standard error.

Every run appends its full record, stamped with a host and build
fingerprint, to <build dir>/records.jsonl, and flags it as not
comparable when its host or build configuration differs from the
previous record of the same workload. A traced run (--trace 1) also
writes a Chrome trace-event file to <build dir>/traces/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# Fingerprint fields that must match for two records to be comparable.
# The git commit and source digest identify the code under test, which
# is what a comparison varies, so they are recorded but not compared.
COMPARABLE_ON = ("nproc", "cpu_model", "compiler", "build_type",
                 "h2o_native")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out_dir):
    """Configure once, then build the benchmark target. Returns the
    binary path, or None when the sources are missing or do not build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("h2obench: no H2O-NAS sources at", ROOT / "src")
        return None
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(out_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out_dir), "--target",
                      "h2obench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("h2obench: build step failed:", " ".join(cmd))
                return None
    return out_dir / "h2obench"


def source_digest():
    """SHA-256 over every file under src/ and h2obench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "h2obench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_record(out_dir, record_path):
    """Stamp the binary's record with the build fingerprint and append
    it to records.jsonl, flagging a fingerprint change."""
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        log("h2obench: no record written")
        return
    record["fingerprint"]["git_commit"] = git_commit()
    record["fingerprint"]["source_digest"] = source_digest()
    history = out_dir / "records.jsonl"
    previous = None
    if history.is_file():
        for line in history.read_text().splitlines():
            try:
                r = json.loads(line)
            except ValueError:
                continue
            if r.get("workload") == record["workload"]:
                previous = r
    record["comparable_with_previous"] = True
    if previous is not None:
        fp, old = record["fingerprint"], previous.get("fingerprint", {})
        differs = [k for k in COMPARABLE_ON if fp.get(k) != old.get(k)]
        if differs:
            record["comparable_with_previous"] = False
            log("h2obench: NOT COMPARABLE with the previous",
                record["workload"], "record; fingerprint differs in:",
                ", ".join(differs))
    with open(history, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    record_path.unlink()


def run(binary, out_dir, args, extra=()):
    """Run one benchmark invocation; returns (exit code, result or None)."""
    record = out_dir / f"record-{os.getpid()}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--record-out", str(record), *extra]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"h2obench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    append_record(out_dir, record)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, (lines, result)


def selftest(binary, out_dir):
    """The output checks must pass on clean runs and fail on perturbed
    outputs."""
    cases = [
        ("surrogate_burst", None, True),
        ("surrogate_burst", "served", False),
        ("forked_shards", "served", False),
        ("perfmodel_build", None, True),
        ("perfmodel_build", "nrmse", False),
    ]
    ok = True
    for workload, perturb, want in cases:
        args = argparse.Namespace(workload=workload, seed=11, seconds=1,
                                  trace=0)
        extra = ["--perturb", perturb] if perturb else []
        code, out = run(binary, out_dir, args, extra)
        got = bool(out and out[1] and out[1].get("correct"))
        passed = got == want and (code == 0) == want
        ok &= passed
        log(f"selftest {workload} perturb={perturb or 'none'}: "
            f"correct={got} exit={code} -> {'PASS' if passed else 'FAIL'}")
    log("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the output checks fail on perturbed "
                        "outputs")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary, out_dir)
    code, out = run(binary, out_dir, args)
    if out is None or out[1] is None:
        return code or 1
    print("\n".join(out[0]), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
