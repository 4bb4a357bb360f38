"""gbsim benchmark: seeded workloads timed end to end, and a traced run that
times each layer.

    python3 perfbench/run.py --workload sample-thermal --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout: gbsim is imported from its `src/`,
never from an installed copy.  Everything runs in this one process with
`workers=1`.  `--workload all` runs every workload untraced and traced,
each run in its own child process, so each reports its own peak memory.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only when every
op's output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["sample-thermal", "psd-permanent", "exact-kernels", "cli-batch"]
SETUP_REPEATS = 3


class Runner:
    """Times ops, checks their outputs and counts failures.

    A check runs outside the timed region and with tracing off.  An op
    that raises, or whose check reports a message, counts as failed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, op) -> float:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # a failing op is counted and reported, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        dt = time.perf_counter() - t0
        try:
            msg = op.check(result)
        except Exception as exc:
            msg = f"check raised {exc!r}"
        if msg:
            print(f"perfbench: FAILED {op.label}: {msg}", file=sys.stderr)
            self.failed += 1
        return dt

    def passes(self, plan, count: int) -> tuple[list[float], float]:
        """Op times and work of timed passes 1..count."""
        times, work = [], 0.0
        for i in range(1, count + 1):
            for op in plan.pass_ops(i):
                times.append(self.op(op))
                work += op.work
        return times, work


def setup(wl, seed: int, sizes: dict, workdir: Path, runner: Runner):
    """Input generation and one warm-up op; returns (plan, seconds)."""
    t0 = time.perf_counter()
    plan = wl(seed, workdir, **sizes)
    runner.op(plan.pass_ops(0)[0])
    return plan, time.perf_counter() - t0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tr, sizes: dict, limits: tuple[int, int], workdir: Path) -> dict:
    """Per-layer metrics from the probe's spans (see README.md)."""
    import workloads as W

    m: dict[str, tuple[float, str]] = {}

    # sampler: the one sample_patterns call of the sample-thermal pass
    calls = tr.select("sampler", "sample_patterns", "sample-thermal")
    call_s = sum(s.dur for s in calls) / max(len(calls), 1)
    blocks = tr.select("sampler", "_block_counts", "sample-thermal")
    block_s = sum(s.dur for s in blocks) / max(len(calls), 1)
    m["sampler.sample_patterns_s"] = (call_s, "s")
    m["sampler.block_s"] = (block_s, "s")
    m["sampler.reduce_s"] = (call_s - block_s, "s")
    m["sampler.reduce_share"] = ((call_s - block_s) / call_s if call_s else 0.0, "ratio")
    m["sampler.blocks"] = (len(blocks) / max(len(calls), 1), "count")
    m["sampler.distinct_patterns"] = (_median([s.note["distinct"] for s in calls]), "count")
    m["sampler.max_count"] = (_median([s.note["max_count"] for s in calls]), "count")

    # psd_permanent: the estimate of the psd-permanent pass
    sec = "psd-permanent"
    ests = tr.select("psd_permanent", "estimate_permanent", sec)
    per_est = max(len(ests), 1)
    for key, layer, name in (("embed_s", "psd_permanent", "embed"), ("exact_s", "psd_permanent", "exact_permanent_psd"), ("sample_s", "sampler", "sample_patterns")):
        m[f"psd_permanent.{key}"] = (sum(s.dur for s in tr.select(layer, name, sec, parent="estimate_permanent")) / per_est, "s")
    m["psd_permanent.ones_count"] = (_median([s.note["count"] for s in ests]), "count")
    m["psd_permanent.rel_stderr"] = (_median([s.note["stderr"] / s.note["estimate"] for s in ests if s.note["estimate"]]), "ratio")
    m["psd_permanent.z_max"] = (max((abs(s.note["estimate"] - s.note["exact"]) / s.note["stderr"] for s in ests if s.note["stderr"]), default=0.0), "ratio")

    # matrix_functions and the large engine calls: the exact-kernels pass
    sec = "exact-kernels"
    k = sizes["exact-kernels"]
    kernels = (
        ("permanent", "n20", k["perm_n"], W.permanent_terms),
        ("hafnian", "n18", k["haf_n"], W.hafnian_terms),
        ("hafnian", "n16", 2 * k["cross_n"], W.hafnian_terms),
    )
    for name, tag, n, terms in kernels:
        t = _median([s.dur for s in tr.select("matrix_functions", name, sec) if s.note["n"] == n])
        m[f"matrix_functions.{name}_s.{tag}"] = (t, "s")
        m[f"matrix_functions.{name}_ops.{tag}"] = (terms(n), "count")
        m[f"matrix_functions.{name}_rate.{tag}"] = (terms(n) / t if t else 0.0, "1/s")
    large = []
    for name, n in (("prob_thermal", k["perm_n"]), ("prob_squeezed", k["haf_n"]), ("prob_general", k["haf_n"] // 2)):
        spans = [s for s in tr.select("engines", name, sec) if s.note["n"] == n]
        large += spans
        m[f"engines.{name}_s"] = (_median([s.dur for s in spans]), "s")
    m["engines.overhead_s"] = (_median([s.self_s for s in large]), "s")

    # the small-call layers: the cli-batch pass
    sec = "cli-batch"
    small = [s for name in ("prob_general", "prob_thermal", "prob_squeezed") for s in tr.select("engines", name, sec) if s.note["n"] <= 4]
    m["engines.small_call_us"] = (_median([s.dur for s in small]) * 1e6, "us")
    m["qform.build_qform_s"] = (_median([s.dur for s in tr.select("qform", "build_qform", sec)]), "s")
    m["interferometer.haar_random_s"] = (_median([s.dur for s in tr.select("interferometer", "haar_random", sec)]), "s")
    m["matrixio.load_s"] = (_median([s.dur for s in tr.select("matrixio", "load_complex_matrix", sec)]), "s")
    mains = tr.select("cli", "main", sec)
    for cmd in ("prob", "validate", "permanent", "hafnian", "haar"):
        m[f"cli.{cmd}_s"] = (_median([s.dur for s in mains if s.note["command"] == cmd]), "s")
    m["cli.overhead_s"] = (_median([s.self_s for s in mains if s.note["command"] == "prob"]), "s")
    m["cli.report_bytes"] = (sum(p.stat().st_size for p in (workdir / "probe-cli-batch" / "out").iterdir()), "bytes")
    m["fock_oracle.prepare_input_s"] = (_median([s.dur for s in tr.select("fock_oracle", "prepare_input", sec)]), "s")
    m["fock_oracle.apply_network_s"] = (_median([s.dur for s in tr.select("fock_oracle", "apply_network", sec)]), "s")
    m["fock_oracle.cutoff"] = (max((s.note["cutoff"] for s in tr.select("fock_oracle", "prepare_input", sec)), default=0), "count")
    m["fock_oracle.leakage_max"] = (max((s.note["leakage"] for s in tr.select("fock_oracle", "apply_network", sec)), default=0.0), "ratio")

    # cost-limit headroom of the workload's own traced ops
    for name, limit in zip(("permanent", "hafnian"), limits):
        n = max((s.note["n"] for s in tr.select("matrix_functions", name, "workload")), default=0)
        m[f"engines.max_{name}_n"] = (n, "count")
        m[f"engines.{name}_limit_share"] = (n / limit, "ratio")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path, import_s: float = 0.0) -> dict:
    """One run of one workload; returns the result object and summary lines."""
    import gbsim
    import numpy as np
    import workloads as W

    wl, _, pass_s = W.WORKLOADS[name]
    passes = max(1, round(seconds / pass_s))
    runner = Runner()
    setups = []
    for _ in range(SETUP_REPEATS):
        plan, dt = setup(wl, seed, sizes[name], workdir / name, runner)
        setups.append(dt)
    plan.stats.clear()
    lines = [f"workload {name}: {passes} passes, sizes {sizes[name]}"]

    if not trace:
        times, work = runner.passes(plan, passes)
        wall = sum(times)
        lines.append(f"{len(times)} timed ops")
        lines.append(f"{plan.work_unit}_per_s {work / wall:.6g} 1/s")
        if plan.stats.get("rel_stderr"):
            t1 = _median(times) * (_median(plan.stats["rel_stderr"]) / 0.01) ** 2
            lines.append(f"time_to_1pct_s {t1:.6g} s")
        metrics = {
            "setup_s": (import_s + _median(setups), "s"),
            "wall_s": (wall, "s"),
            "op_s.p50": (_median(times), "s"),
            "op_s.p90": (float(np.percentile(times, 90)), "s"),
            "work_per_s": (work / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        traced = Runner(tr)
        untraced_s = traced_s = 0.0
        try:
            # Half the passes, each run untraced and then traced on the same
            # inputs, so that the overhead is measured side by side.
            tr.section = "workload"
            for i in range(1, max(1, passes // 2) + 1):
                ops = plan.pass_ops(i)
                untraced_s += sum(runner.op(op) for op in ops)
                traced_s += sum(traced.op(op) for op in ops)
            for other in NAMES:
                tr.section = other
                probe_plan = W.WORKLOADS[other][0](seed, workdir / f"probe-{other}", **sizes[other])
                for op in probe_plan.pass_ops(1):
                    traced.op(op)
        finally:
            tr.uninstall()
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        metrics = layer_metrics(tr, sizes, (gbsim.PERMANENT_LIMIT, gbsim.HAFNIAN_LIMIT), workdir)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["sampler.bright_mean_ratio"] = (W.bright_mean_ratio(), "ratio")
        metrics["sampler.seed_collision"] = (W.seed_collision(), "count")
    lines.append(f"error_rate {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} ops failed)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
    }


def machine_line() -> str:
    import numpy
    import scipy

    return (
        f"machine: nproc {os.cpu_count()}, {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    )


def run_all(args) -> int:
    """Every workload untraced and traced, each run in its own child process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in ((n, t) for n in NAMES for t in (0, 1)):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        try:
            res = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer metrics (ignored by --workload all)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "gbsim" / "__init__.py").is_file():
        print(f"perfbench: no gbsim sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    # One BLAS thread: on a 2-core box a second, busy-waiting BLAS thread
    # competes with the interpreter and made identical ops vary by +-15%.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    import gbsim

    import_s = time.perf_counter() - t0
    if Path(gbsim.__file__).resolve().parent != (src / "gbsim").resolve():
        print(f"perfbench: imported gbsim from {gbsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads as W

    sizes = {n: W.WORKLOADS[n][1] for n in NAMES}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(machine_line())
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print_result(res)
    return 0 if res["correct"] else 1


def print_result(res: dict) -> None:
    """Summary lines, one `name value unit` line per metric, then the JSON line."""
    for line in res["lines"]:
        print(line)
    for k, v in res["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    sys.exit(main())
