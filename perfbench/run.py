#!/usr/bin/env python3
"""Build and run one workload of the MARP benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark executable (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build, or $CARGO_TARGET_DIR when that is set; later calls rebuild
incrementally. The executable runs in a fresh process per call, so peak memory
is the workload's own. The last stdout line is the result object; the line
before it holds provenance (build type, compiler, nproc, source revision,
seed) and detail figures. A full record also goes to
<build dir>/results/. Exit status is 0 only for a run whose correctness
gate passed.

    python3 perfbench/run.py --self-test

runs every workload briefly in both modes and checks that each emits
exactly the metrics and units BENCHMARK.json lists, and that a run whose
correctness gate is fed a corrupted result fails.
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
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(os.cpu_count() or 2)
        subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs from need not be a git repository)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_workload(binary, workload, seed, seconds, trace, corrupt=False):
    """Run the executable; returns (exit code, provenance/detail dict, result dict)."""
    # Relative to the checkout: Unix-domain socket paths live under it and
    # must stay short whatever the checkout's absolute path.
    out_dir = os.path.relpath(build_dir() / "run", ROOT)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir]
    if corrupt:
        cmd.append("--corrupt-result")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"perfbench printed no result (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main_run(args):
    binary = build()
    code, info, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                      args.trace)
    info["provenance"]["git_commit"] = git_commit()
    info["provenance"]["source_sha256"] = source_digest()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return code


def main_self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = build()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, _, result = run_workload(binary, workload, 1, 1, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if code != 0 or result.get("correct") is not True or result.get("failed") != 0:
                failures.append(f"{where}: clean run failed its gate (exit {code})")
            metrics = result.get("metrics", {})
            if set(metrics) != set(expected[trace]):
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(metrics))}, "
                                f"extra {sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {name} = {got}, want a number in {unit}")
            if trace == 1:
                spans = build_dir() / "run" / f"spans-{workload}-1.json"
                events = json.loads(spans.read_text()).get("traceEvents", [])
                if not any(e.get("ph") == "X" for e in events):
                    failures.append(f"{where}: {spans.name} holds no spans")
        code, _, result = run_workload(binary, workload, 1, 1, 0, corrupt=True)
        if code == 0 or result.get("correct") is not False or result.get("failed") != result.get("attempted"):
            failures.append(f"{workload}: corrupted result passed the gate (exit {code})")
    for failure in failures:
        log(f"self-test: {failure}")
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return main_self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        return main_run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        log(str(error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
