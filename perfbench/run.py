"""Benchmark the softmentions pipeline end to end and per layer.

    python3 perfbench/run.py --workload join --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (cached under
``perfbench/.cache``), then runs the pipeline again and again, each time in
a fresh child process with ``workers = 1``, until ``--seconds`` have
passed. The first run's outputs are checked against the generator's plan;
every later run must reproduce them byte for byte. The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
medians of the end-to-end metrics, with ``--trace 1`` (untraced and traced
runs alternate) the per-layer metrics listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
from checks import CheckError, check_outputs, digest  # noqa: E402
from generate import GENERATORS, VARIANTS_DIR, generate  # noqa: E402

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def prepare(workload: str, seed: int) -> tuple[Path, dict]:
    """The cached input directory for (workload, seed) and its plan.

    The cache key carries a hash of the generator's source, so a change to
    the generator never reuses inputs it would no longer produce.
    """
    version = hashlib.sha256((HERE / "generate.py").read_bytes()).hexdigest()[:12]
    workdir = CACHE / f"{workload}-{seed}-{version}"
    plan_path = workdir / "plan.json"
    if not plan_path.exists():
        staging = workdir.with_name(workdir.name + ".tmp")
        shutil.rmtree(staging, ignore_errors=True)
        plan = generate(workload, seed, staging)
        (staging / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        shutil.rmtree(workdir, ignore_errors=True)
        staging.rename(workdir)
    return workdir, json.loads(plan_path.read_text(encoding="utf-8"))


def reset_outputs(workdir: Path) -> None:
    """An out/ directory holding only what the workload starts from."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    artifacts = workdir / "artifacts"
    if artifacts.exists():
        shutil.copytree(artifacts, out)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(workdir: Path, mode: str, traced: bool, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, "1" if traced else "0"],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline run failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    package = Path(result["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError(f"child imported the package from {package}, not {SRC}")
    return result


def layer_metrics(traced: list[dict], untraced: list[dict], names: list[str]) -> dict:
    """Medians of per-layer times; counts must repeat exactly across runs."""
    layers = [run["layers"] for run in traced]
    out = {}
    for name in names:
        if name == "synonyms.jw_hit_ratio":
            calls = layers[0].get("synonyms.jw_calls", 0)
            out[name] = layers[0].get("synonyms.join_pairs", 0) / calls if calls else 0.0
        elif name == "trace.overhead_s":
            out[name] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in untraced
            )
        elif name.endswith("_s"):
            out[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        else:
            values = {layer.get(name, 0) for layer in layers}
            if len(values) != 1:
                raise CheckError(f"count {name} differs between runs: {sorted(values)}")
            out[name] = values.pop()
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir, plan = prepare(workload, seed)
    deadline = time.monotonic() + 170.0
    # Compile the package's bytecode once, as an installed package would be.
    subprocess.run(
        [sys.executable, "-c", "import softmentions.cli"], env=child_env(), check=True,
        timeout=60,
    )
    untraced: list[dict] = []
    traced: list[dict] = []
    reference = None
    start = time.monotonic()
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        runs = len(untraced) + len(traced)
        if runs >= MIN_RUNS * (2 if trace else 1) and (
            elapsed + statistics.median(durations) * (2 if trace else 1) > seconds
        ):
            break
        for traced_run in ((False, True) if trace else (False,)):
            began = time.monotonic()
            reset_outputs(workdir)
            result = run_child(workdir, plan["mode"], traced_run, deadline)
            if reference is None:
                check_outputs(workdir, plan)
                reference = digest(workdir / "out")
            elif digest(workdir / "out") != reference:
                raise CheckError("outputs differ between runs of the same inputs")
            (traced if traced_run else untraced).append(result)
            durations.append(time.monotonic() - began)
    stored = workdir / "digest.txt"
    if stored.exists() and stored.read_text() != reference:
        raise CheckError(f"outputs differ from an earlier invocation with seed {seed}")
    stored.write_text(reference)
    shutil.rmtree(workdir / "out", ignore_errors=True)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(traced, untraced, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            name: statistics.median(run[name] for run in untraced) for name in END_TO_END
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": True,
        "attempted": len(untraced) + len(traced),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "softmentions" / "cli.py", VARIANTS_DIR, ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"run.py: cannot benchmark, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (CheckError, RuntimeError, subprocess.SubprocessError) as err:
        print(f"run.py: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
