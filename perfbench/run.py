"""stereorig scan benchmark.

    python3 perfbench/run.py --workload dense-room --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` a single client
runs ``stereorig scan`` child processes one after another (a closed loop;
no two scans overlap) until the scans have taken about ``--seconds``
seconds, with three timed set-up children before each scan, and prints the
end-to-end metrics.  With ``--trace 1`` it
runs one CLI scan for reference, then alternates untraced and traced
in-process runs of the same pipeline and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json; the last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every child, on every commit, so
# accuracy_report's matmul does not scale with whatever cores are free.
BLAS_THREADS = 1
_PINNED_ENV = {
    var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(_PINNED_ENV)

import argparse  # noqa: E402 - the pins above must precede the numpy import
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import ScanResult, artifact_hashes, judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SCANS = 3  # a median and at least two repeats to compare bytes
# Set-up children run before every scan, so that both samples span the
# whole run and see the same drift in host speed.
SETUP_PER_SCAN = 3
SCAN_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 30.0

SETUP_CODE = (
    "import sys, stereorig\n"
    "from stereorig.config import load_config\n"
    "from stereorig.scene import load_scene\n"
    "config, _ = load_config(sys.argv[1])\n"
    "load_scene(config.scene_path.read_text(encoding='utf-8'))\n"
    "print(stereorig.__file__)\n"
)


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def metric_units(root: Path, group: str) -> dict[str, str]:
    """Name -> unit of the metrics in one group of BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update(_PINNED_ENV)
    return env


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_child(argv: list[str], env: dict, timeout_s: float, log: Path) -> tuple[float, float, int]:
    """Wall time from spawn to exit, the child's own peak RSS in MB, and its exit code."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def scan_argv(config: Path, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "stereorig", "scan", "--config", str(config), "--out", str(out_dir)]


def scan_note(walls: list[float]) -> str:
    """State the sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(walls)
    rank = n - 10  # 1-based, ascending
    if rank <= n / 2:
        return f"median of n={n}; no percentile above the median has 10 samples beyond it"
    return f"median of n={n}; p{100 * rank // n} = {sorted(walls)[rank - 1]:.6g} s"


def warm_setup(argv: list[str], env: dict) -> None:
    """Run one untimed set-up child to fill the caches and check what it imports."""
    warm = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if warm.returncode != 0:
        raise BenchError(f"set-up child failed:\n{warm.stderr}")
    if not Path(warm.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"stereorig imported from {warm.stdout.strip()}, not {SRC}")


def time_setup(argv: list[str], env: dict, log: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PER_SCAN):
        wall, _, code = run_child(argv, env, SETUP_TIMEOUT_S, log)
        if code != 0:
            raise BenchError(f"set-up child exited {code}; see {log}")
        times.append(wall)
    return times


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def print_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    payload = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": payload}
        )
    )


def scene_xyz(config: Path) -> np.ndarray:
    from stereorig.scene import load_scene

    return load_scene((config.parent / "scene.txt").read_text(encoding="utf-8")).xyz


def run_scans(workload, seed: int, seconds: float, work: Path, env: dict, units: dict) -> None:
    """End-to-end run: a closed loop of set-up children and scan children."""
    config = workload.write_inputs(work / "inputs", seed)
    log = work / "children.log"
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    warm_setup(setup_argv, env)

    setup: list[float] = []
    results: list[ScanResult] = []
    while True:
        setup += time_setup(setup_argv, env, log)
        out_dir = work / f"scan-{len(results)}"
        wall, rss, code = run_child(scan_argv(config, out_dir), env, SCAN_TIMEOUT_S, log)
        results.append(ScanResult(wall, rss, code, out_dir))
        elapsed = sum(r.wall_s for r in results)
        typical = statistics.median(r.wall_s for r in results)
        if len(results) >= MIN_SCANS and elapsed + typical > seconds:
            break

    report, hashes = judge(results, workload, scene_xyz(config), seed)
    failed = sum(r.failed for r in results)
    walls = [r.wall_s for r in results]
    n = len(results)
    print(f"workload {workload.name}: closed loop, 1 client, {n} scans taking {elapsed:.1f} s")
    print("env " + json.dumps(environment(seed)))
    print("artifacts " + json.dumps(hashes))
    for r in results:
        for error in r.errors:
            print(f"failed {r.out_dir.name}: {error}")
    metrics = {
        "scan_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mb for r in results),
        "recall": report["recall"] if report else 0.0,
        "median_error_mm": report["median_error_mm"] if report else 0.0,
    }
    notes = {"scan_s": scan_note(walls), "setup_s": f"median of {len(setup)} set-up children"}
    for name, unit in units.items():
        print_metric(name, metrics[name], unit, notes.get(name, ""))
    print("scan walls_s " + " ".join(f"{w:.3f}" for w in walls))
    print_metric("fail_frac", failed / n, "failed/attempted", f"{failed}/{n}")
    print_result(failed == 0 and report is not None, n, failed, metrics, units)


def run_traced(workload, seed: int, seconds: float, work: Path, env: dict, units: dict) -> None:
    """Traced run: one CLI scan for reference, then untraced/traced in-process pairs."""
    import traced

    config = workload.write_inputs(work / "inputs", seed)
    ref_dir = work / "cli"
    wall, rss, code = run_child(scan_argv(config, ref_dir), env, SCAN_TIMEOUT_S, work / "cli.log")
    cli = ScanResult(wall, rss, code, ref_dir)
    report, ref_hashes = judge([cli], workload, scene_xyz(config), seed)

    untraced, traced_walls, per_run, failures = [], [], [], list(cli.errors)
    loop_start = time.perf_counter()
    while True:
        k = len(per_run)
        for recorder, walls in ((traced.NullRecorder(), untraced), (traced.Recorder(), traced_walls)):
            out_dir = work / f"inproc-{k}-{type(recorder).__name__}"
            start = time.perf_counter()
            traced.pipeline(config, out_dir, recorder)
            walls.append(time.perf_counter() - start)
            if artifact_hashes(out_dir, workload.captures) != ref_hashes:
                failures.append(f"{out_dir.name}: artifacts differ from the CLI scan")
            shutil.rmtree(out_dir)
        last_spans = recorder.spans
        per_run.append(traced.layer_metrics(last_spans))
        elapsed = time.perf_counter() - loop_start
        if elapsed * (k + 2) / (k + 1) > seconds:
            break

    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) - statistics.median(untraced)
    ) / statistics.median(untraced)
    attempted = 1 + len(untraced) + len(traced_walls)
    total = statistics.median(traced_walls)

    spans_file = work.parent / f"spans-{workload.name}.json"
    spans_file.write_text(json.dumps([s.__dict__ for s in last_spans]), encoding="utf-8")
    print(f"workload {workload.name}: 1 CLI scan, {len(per_run)} untraced/traced pairs")
    print("env " + json.dumps(environment(seed)))
    print("artifacts " + json.dumps(ref_hashes))
    for error in failures:
        print(f"failed {error}")
    for name, unit in units.items():
        share = f"{100 * metrics[name] / total:.1f}% of the traced scan" if unit == "s" else ""
        print_metric(name, metrics[name], unit, share)
    print_result(not failures and report is not None, attempted, len(failures), metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "stereorig" / "__init__.py").is_file():
        print(f"error: no stereorig sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units(ROOT, "per_layer" if args.trace else "end_to_end")
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(SRC))

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    run = run_traced if args.trace else run_scans
    try:
        run(WORKLOADS[args.workload], args.seed, args.seconds, work, child_env(SRC), units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
