#!/usr/bin/env python3
"""nncomm benchmark: builds perfbench/ and runs one workload on the real runtime.

    python3 perfbench/run.py --workload scatter_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all             # every workload, one after another,
                                               # mg_solve too (not in BENCHMARK.json)
    python3 perfbench/run.py --selftest        # each workload's output check must fail
                                               # on a corrupted result

The library is built from ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the repository root), so the first run
compiles for about a minute. Each run prints the host it ran on, the
metrics by name with units, and as its last line one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes a
Chrome trace and a layer self-time table next to the build directory.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["mg_solve", "scatter_steady", "alltoallw_ring"]
RUN_TIMEOUT_S = 170
CALIB_DRIFT = 0.15         # calibration loop after/before drift


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_root() / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "nncomm_perf", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    exe = bdir / "nncomm_perf"
    if not exe.is_file():
        fail(f"{exe} missing after build")
    return exe


def source_fingerprint():
    """git sha when the tree is a checkout, plus a hash of the sources built."""
    sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def run_once(exe, workload, seed, seconds, trace, corrupt=False):
    """Runs the binary once; returns (exit code, parsed RESULT or None, host)."""
    out_dir = build_root() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NNCOMM_")}
    scrubbed = sorted(k for k in os.environ if k.startswith("NNCOMM_"))
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir", str(out_dir)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sha, tree = source_fingerprint()
    info = result["info"] if result else {}
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "simd": info.get("simd"),
        "build_type": info.get("build_type"),
        "git_sha": sha,
        "source_hash": tree,
        "steal_share": float(info["steal_share"]) if info else None,
        "calib_before_ms": float(info["calib_before_ms"]) if info else None,
        "calib_after_ms": float(info["calib_after_ms"]) if info else None,
        "wakeup_before_us": float(info["wakeup_before_us"]) if info else None,
        "wakeup_after_us": float(info["wakeup_after_us"]) if info else None,
        "env_scrubbed": scrubbed,
    }
    warnings = []
    cb, ca = host["calib_before_ms"], host["calib_after_ms"]
    if cb and ca and abs(ca / cb - 1) > CALIB_DRIFT:
        warnings.append(f"host speed drifted: calibration {cb:.3f} -> {ca:.3f} ms")
    if info.get("contended") == "yes":
        warnings.append(f"contended host: {100 * host['steal_share']:.1f}% CPU steal over the "
                        "run, or counted blocks above the benchmark's steal limit")
    if host["build_type"] not in ("Release", "RelWithDebInfo"):
        warnings.append(f"unoptimized build: {host['build_type']}")
    host["warnings"] = warnings
    return proc.returncode, result, host


def report(workload, seed, trace, rc, result, host):
    print("host: " + json.dumps(host, sort_keys=True))
    if result is None:
        return None
    info = result["info"]
    print(f"{workload}  seed {seed}  trace {int(trace)}  samples {info.get('samples')} "
          f"({info.get('samples_beyond_p90')} beyond p90)  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, unit in (("op_ms_p90", "ms"), ("ops_per_s", "1/s")):
        if name in info:
            print(f"  {name:40s} {float(info[name]):>16.6g} {unit} (reported, not gated)")
    print(f"  {'failed_ops_ratio':40s} {float(info['failed_ops_ratio']):>16.6g} ratio")
    out = {
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }
    record = dict(out, workload=workload, seed=seed, trace=int(trace), host=host,
                  info=info)
    path = build_root() / "out" / f"run-{workload}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return out


def selftest(exe):
    """Each workload's check must catch one corrupted result."""
    ok = True
    for w in WORKLOADS:
        rc, result, _ = run_once(exe, w, seed=1, seconds=1, trace=False, corrupt=True)
        ratio = float(result["info"]["failed_ops_ratio"]) if result else 0.0
        caught = rc != 0 and result is not None and ratio > 0
        print(f"selftest {w}: exit {rc}, failed_ops_ratio {ratio:.6f} -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--selftest", action="store_true",
                    help="check that every workload's output check can fail")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("one of --workload, --all or --selftest is required")

    exe = build()
    if args.selftest:
        return selftest(exe)
    code = 0
    last = None
    for w in WORKLOADS if args.all else [args.workload]:
        rc, result, host = run_once(exe, w, args.seed, args.seconds, args.trace)
        last = report(w, args.seed, args.trace, rc, result, host)
        if last is None or not last["correct"]:
            code = 1
    if args.all:
        print(json.dumps({"correct": code == 0}))
    elif last is not None:
        print(json.dumps(last))
    return code


if __name__ == "__main__":
    sys.exit(main())
