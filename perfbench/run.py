"""The nncpdf benchmark: seeded workloads over the bound, optimizer,
derivation and CLI paths, with an optional per-layer traced run.

    python3 perfbench/run.py --workload bound-n4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the package is imported from ``src`` next to this
directory.  Every pass runs in a fresh process (``one_pass.py``); passes
follow one another, closed loop and single-threaded, until their timed
seconds reach ``--seconds`` (at least ``MIN_PASSES``).  With ``--trace 1``
passes alternate between traced and untraced, so the run reports the
tracing overhead next to the per-layer numbers.

Output: one summary line per workload, one ``{"record": ...}`` line with the
machine, versions and every pass, and last the result object whose metric
names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (stdlib only; the package is imported by passes)

DEFAULT_SEED = 0
# Not used while the benchmark was tuned: confirm a claimed gain on it too.
HELD_OUT_SEED = 1505
WORKLOADS = ("bound-n4", "ascent-n3", "derive-n4", "cli-fixtures")
MIN_PASSES = 5
WALL_LIMIT_S = 150.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(workload, seed, index, traced, deadline):
    """Run one pass in a child process; ``None`` if it crashed or timed out."""
    workdir = WORK / f"pass-{os.getpid()}-{index}"
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
        "--seed", str(seed), "--pass", str(index), "--trace", str(int(traced)),
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload} pass {index}: timed out\n")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{workload} pass {index}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Run passes until their timed seconds reach ``seconds``; returns
    (untraced passes, traced passes, crashed pass count)."""
    start = monotonic()
    deadline = start + WALL_LIMIT_S + 20.0
    plain, traced, crashed = [], [], 0
    longest = 0.0
    index = 0
    while True:
        timed = sum(p["raw_seconds"] for p in plain + traced)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if timed >= seconds and enough:
            break
        if monotonic() - start + longest > WALL_LIMIT_S or crashed >= MIN_PASSES:
            break
        as_traced = bool(trace) and index % 2 == 0
        began = monotonic()
        result = run_pass(workload, seed, index, as_traced, deadline)
        longest = max(longest, monotonic() - began)
        if result is None:
            crashed += 1
        else:
            (traced if as_traced else plain).append(result)
        index += 1
    return plain, traced, crashed


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(passes, prefix=""):
    return {
        f"{prefix}setup_s": _median(p[f"{prefix}setup_s"] for p in passes),
        f"{prefix}ops_per_s": _median(p["ops"] / p[f"{prefix}seconds"] for p in passes),
        "peak_rss_mb": _median(p["rss_mb"] for p in passes),
    }


def per_layer(workload, plain, traced):
    """Per-layer values from the traced passes; also the names of layers the
    workload must reach but whose calls read zero."""
    totals = {}
    for p in traced:
        for k, v in p["totals"].items():
            totals[k] = max(totals.get(k, 0.0), v) if k.endswith("_max") else totals.get(k, 0.0) + v
    values = tracer.layer_metrics(totals, sum(p["ops"] for p in traced))
    fast = _median(p["ops"] / p["seconds"] for p in plain)
    slow = _median(p["ops"] / p["seconds"] for p in traced)
    values["trace.ops_per_s"] = slow
    values["trace.untraced_ops_per_s"] = fast
    values["trace.overhead_ratio"] = fast / slow - 1.0 if slow else 0.0
    everything = plain + traced
    for key, name in (("best_rate_bits", "optimize.best_rate_bits"),
                      ("region_rows", "symbolic.region_rows")):
        values[name] = _median(v for p in everything for v in p["extras"].get(key, []))
    zero = [n for n in tracer.REQUIRED[workload] if not totals.get(f"{n}.calls")]
    return values, zero


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        # informational, not a gated metric: adding code is not a regression
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "nncpdf").glob("*.py"))
        ),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "nncpdf" / "__init__.py").is_file():
        sys.stderr.write(f"no nncpdf package under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    meta = run_metadata()
    metrics, records = {}, []
    attempted = failed = 0
    errors = []
    for workload in names:
        plain, traced, crashed = run_workload(workload, args.seed, seconds, args.trace)
        everything = plain + traced
        w_attempted = sum(p["ops"] for p in everything) + crashed
        w_failed = sum(len(p["errors"]) for p in everything) + crashed
        errors += [f"{workload}: {e}" for p in everything for e in p["errors"]]
        if args.trace:
            values, zero = per_layer(workload, plain, traced)
            errors += [f"{workload}: tracing read zero calls for {n}" for n in zero]
        else:
            values = end_to_end(plain)
        attempted += w_attempted
        failed += w_failed
        summary = {
            "failed_ratio": w_failed / w_attempted if w_attempted else 1.0,
            **end_to_end(plain),
            **end_to_end(plain, "raw_"),
        }
        for key in ("best_rate_bits", "region_rows"):
            found = [v for p in everything for v in p["extras"].get(key, [])]
            if found:
                summary[key] = statistics.median(found)
        print(f"{workload}: seed {args.seed}, {len(everything)} passes, "
              f"{w_attempted} ops, {w_failed} failed; "
              + ", ".join(f"{k} {v:.12g}" for k, v in summary.items()))
        records.append({"workload": workload, "summary": summary, "values": values,
                        "passes": [dict(p, traced=p in traced) for p in everything],
                        "crashed": crashed})
        for m in wanted:
            key = m["name"] if len(names) == 1 else f"{workload}.{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    for e in errors:
        sys.stderr.write(e.rstrip() + "\n")
    print(json.dumps({"record": {"meta": meta, "seed": args.seed, "seconds": seconds,
                                 "trace": args.trace, "workloads": records}}))
    print(json.dumps({"correct": not errors and attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
