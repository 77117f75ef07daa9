#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is configured and built
(CMake, Release, the repository's default options) into the directory named
by CARGO_TARGET_DIR, or .bench_build when that is unset; an up-to-date
build is a no-op. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. With --trace 1 the benchmark's spans are
written to <build dir>/spans/<workload>-seed<n>.json.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"\nbuild failed: {' '.join(cmd)} (exit {rc})\n")
                sys.exit(3)
    return build_dir / "e2e_bench"


def check_names(result_line: str, traced: bool) -> str:
    """Returns an error when the printed metrics differ from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return ""
    spec = json.loads(spec_path.read_text())
    want = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    try:
        got = list(json.loads(result_line)["metrics"])
    except (ValueError, KeyError, TypeError):
        return "last line is not a result object"
    if sorted(got) != sorted(want):
        return f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    return ""


def main() -> int:
    args = sys.argv[1:]
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir = build_dir / "e2e_bench"
    binary = build(build_dir)

    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    if traced and "--workload" in args and "--seed" in args:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        name = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1]
        args += ["--spans-out", str(spans / f"{name}-seed{seed}.json")]

    if "--self-test" in args:
        return subprocess.run([str(binary), "--self-test"]).returncode
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    error = check_names(lines[-1], traced)
    if error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(f"run.py: {error}\n")
        return 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
