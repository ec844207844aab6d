#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload stream|epoch16|fanout \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark (Release) into the subdirectory perfbench/ of
$CARGO_TARGET_DIR, or of .bench_build when that is unset; later calls only
rebuild what changed. The script never touches anything else in that
directory, and it refuses a subdirectory that holds another CMake project. Build output goes
to stderr, so the last line of stdout is always the benchmark's summary.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def cache_entry(build: Path, key: str):
    """Value of `key` in the build tree's CMake cache, or None."""
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def run_logged(cmd, log) -> None:
    with open(log, "ab") as f:
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                             cwd=ROOT)
    if rc != 0:
        sys.stderr.write(Path(log).read_text(errors="replace")[-4000:])
        sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
        sys.exit(3)


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write("perfbench: library sources (src/) not found\n")
        sys.exit(3)
    build = build_dir()
    home = cache_entry(build, "CMAKE_HOME_DIRECTORY")
    if home is not None and Path(home).resolve() != HERE:
        # A perfbench tree configured from another checkout is ours to
        # replace; anything else is left alone.
        if cache_entry(build, "CMAKE_PROJECT_NAME") != "lfbs_perfbench":
            sys.stderr.write(f"perfbench: {build} holds another CMake "
                             "project; not touching it\n")
            sys.exit(3)
        shutil.rmtree(build)
    build.mkdir(parents=True, exist_ok=True)
    log = build / "perfbench-build.log"
    if cache_entry(build, "CMAKE_HOME_DIRECTORY") is None:
        cmd = ["cmake", "-S", str(HERE), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", str(build), "--target", "lfbs_perfbench",
                "-j", jobs], log)
    return build / "lfbs_perfbench"


def main() -> int:
    binary = build()
    try:
        return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
