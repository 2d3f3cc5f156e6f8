#!/usr/bin/env python3
"""End-to-end benchmark of the dpg CLI and its serving daemon.

    python3 perfbench/run.py --workload offline_taxi --seed 1 --seconds 20 --trace 0

Builds the `dpg` release binary and the benchmark's own `perfbench`
helper from source, generates the workload's inputs from `--seed` with
the program's generator and writers, then runs the workload's `dpg`
commands in whole passes for `--seconds` seconds, checking every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, medians over the
run's passes. With `--trace 1` they are the per-layer ones: timed CLI passes
alternate with `perfbench trace`, which calls each layer's public
functions in-process; per command, the difference between the two is
its share of `cli.unattributed_s`.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

COMMAND_TIMEOUT_S = 120
# `dpg serve --epoch-len` for the fill: longer than the fill stream, so
# every record stays in the open epoch's WAL for the restarts to replay.
FILL_EPOCH_LEN = "1000000"

# Metric names and units come from BENCHMARK.json, the one list of them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else (ROOT / target)


def build():
    """Builds `dpg` and the `perfbench` helper in release mode."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "dpg").is_dir():
        raise SystemExit(f"perfbench: no dpg workspace at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["--bin", "dpg"]),
        (HERE / "harness" / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "dpg", release / "perfbench"


class Result:
    def __init__(self, rc, wall_s, maxrss_kb, stdout):
        self.rc, self.wall_s, self.maxrss_kb, self.stdout = rc, wall_s, maxrss_kb, stdout


def run_timed(tool, argv, cwd, err_path):
    """Runs one process to its end through `perfbench exec`: exit code,
    wall time, the process's own peak RSS (KiB), and standard output.
    The output comes through a pipe, so a large `--dump-state` adds no
    disk writes of the benchmark's own."""
    env = dict(os.environ, MCS_THREADS="1")
    report = err_path.with_suffix(".report")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        # Its own process group, so a timeout kills the command as well.
        proc = subprocess.Popen([str(tool), "exec", str(report), "--", *argv], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return Result(proc.returncode, wall, 0, "")
    rep = json.loads(report.read_text())
    return Result(rep["rc"], rep["wall_s"], rep["maxrss_kb"], out.decode())


class Pass:
    """One whole round of a workload's `dpg` commands and their checks."""

    def __init__(self, dpg, tool, work):
        self.dpg, self.tool, self.work = dpg, tool, work
        self.results, self.errors = {}, []
        self.attempted = self.failed = 0
        self.ave_cost = None

    def run(self, name, *args):
        self.attempted += 1
        out_dir = self.work / "out"
        out_dir.mkdir(exist_ok=True)
        r = run_timed(self.tool, [str(self.dpg), *args], self.work, out_dir / f"{name}.err")
        self.results[name] = r
        if r.rc != 0:
            self.failed += 1
            err = (out_dir / f"{name}.err").read_text().strip().splitlines()
            log(f"{name}: exit {r.rc}: {err[-1] if err else ''}")
            return None
        return r

    def run_json(self, name, algo, path, accesses, *extra):
        r = self.run(name, "run", "--algo", algo, "--json", *extra, path)
        if r is None:
            return None
        doc = checks.parse_run_json(r.stdout)
        self.check(checks.check_run(doc, algo, accesses))
        return doc

    def check(self, errors):
        for e in errors:
            log(f"check failed: {e}")
        self.errors += errors

    @property
    def wall_s(self):
        return sum(r.wall_s for r in self.results.values())

    @property
    def peak_rss_kb(self):
        return max(r.maxrss_kb for r in self.results.values())


def offline_taxi(ps, facts, _expect):
    main, small, probe = facts["main"], facts["small"], facts["probe"]
    costs = {}
    for algo in ("dp_greedy", "optimal", "greedy", "package_served"):
        doc = ps.run_json(f"main_{algo}", algo, "main.dpgb", main["accesses"])
        if doc:
            costs[algo] = doc["total_cost"]
    if "dp_greedy" in costs:
        ps.ave_cost = costs["dp_greedy"] / main["accesses"]
    r = ps.run("main_trace_solve", "trace", "solve", "main.dpgb", "--algo", "dp_greedy",
               "--out", "ledger.jsonl")
    if r is not None and "dp_greedy" in costs:
        with open(ps.work / "ledger.jsonl") as f:
            ps.check(checks.check_ledger(f, r.stdout, costs["dp_greedy"]))
    ps.check(checks.check_bounds(costs, ("dp_greedy", "package_served")))
    by_json = ps.run_json("small_json", "dp_greedy", "small.json", small["accesses"])
    by_dpgb = ps.run_json("small_dpgb", "dp_greedy", "small.dpgb", small["accesses"])
    if by_json and by_dpgb:
        ps.check(checks.check_same_bits(by_json["total_cost"], by_dpgb["total_cost"],
                                        "small trace as JSON vs DPGB"))
    # Scale probes: both fail today on the absolute 1e-6 reconciliation
    # gate of `dpg run` (see README, "Faults").
    for algo in ("greedy", "ski_rental"):
        ps.run_json(f"probe_{algo}", algo, "probe.dpgb", probe["accesses"])


def wide_catalog(ps, facts, _expect):
    wide = facts["wide"]
    costs = {}
    for algo, extra in (("dp_greedy", ()), ("dpg_k", ("--max-group", "4")), ("multi", ()),
                        ("optimal", ())):
        doc = ps.run_json(f"wide_{algo}", algo, "wide.dpgb", wide["accesses"], *extra)
        if doc:
            costs[algo] = doc["total_cost"]
    if "dp_greedy" in costs:
        ps.ave_cost = costs["dp_greedy"] / wide["accesses"]
    ps.check(checks.check_bounds(costs, ("dp_greedy", "dpg_k", "multi")))


def serve_stream(ps, facts, expect):
    stream, fill = facts["stream"], facts["fill"]
    for d in ("served", "filled"):
        shutil.rmtree(ps.work / d, ignore_errors=True)
    epoch_len = str(expect["epoch_len"])
    r = ps.run("serve_stream", "serve", "--dir", "served", "--input", "stream.txt",
               "--algo", "dp_greedy", "--epoch-len", epoch_len, "--quiet")
    if r is not None:
        ps.check(checks.check_serve_summary(checks.parse_serve_summary(r.stdout),
                                            stream["requests"]))
    r = ps.run("serve_dump", "serve", "--dir", "served", "--epoch-len", epoch_len,
               "--dump-state")
    if r is not None:
        try:
            state = json.loads(r.stdout)
        except ValueError:
            state = None
        ps.check(checks.check_served_state(state, expect))
        if isinstance(state, dict) and expect["settled_accesses"]:
            ps.ave_cost = state["cum_cost"] / expect["settled_accesses"]
    r = ps.run("serve_fill", "serve", "--dir", "filled", "--input", "fill.txt",
               "--epoch-len", FILL_EPOCH_LEN, "--quiet")
    if r is not None:
        ps.check(checks.check_serve_summary(checks.parse_serve_summary(r.stdout),
                                            fill["requests"]))
    first = None
    for i in (1, 2):
        r = ps.run(f"serve_restart{i}", "serve", "--dir", "filled", "--epoch-len",
                   FILL_EPOCH_LEN, "--dump-state")
        if r is not None:
            text = r.stdout
            ps.check(checks.check_recovered_state(text, first, fill["requests"]))
            first = first if first is not None else text


PASSES = {"offline_taxi": offline_taxi, "wide_catalog": wide_catalog,
          "serve_stream": serve_stream}


def helper(tool, *args, timeout=COMMAND_TIMEOUT_S):
    env = dict(os.environ, MCS_THREADS="1")
    p = subprocess.run([str(tool), *args], cwd=ROOT, env=env, capture_output=True,
                       text=True, timeout=timeout)
    if p.returncode != 0:
        raise SystemExit(f"perfbench: {args[0]} failed: {p.stderr.strip()}")
    return json.loads(p.stdout)


def setup(tool, args, work):
    """One set-up round: `perfbench gen` generates and renders the inputs,
    timing that itself, and writes them if they are not written yet.
    Returns the inputs' make-up and the round's time."""
    gen = helper(tool, "gen", "--workload", args.workload, "--seed", str(args.seed),
                 "--dir", str(work))
    return gen["inputs"], gen["setup_s"]


def expected(tool, args, work):
    """The daemon's expected values, for the workload that runs it."""
    if args.workload != "serve_stream":
        return None
    return helper(tool, "expect", "--workload", args.workload, "--seed", str(args.seed),
                  "--dir", str(work))


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_seconds(passes):
    """Wall time of one pass: each command's median over the run's
    passes, summed, so a stall that hits one command in one pass does not
    move the figure."""
    names = passes[0].results
    return sum(statistics.median(p.results[n].wall_s for p in passes) for n in names)


def measure(dpg, tool, args, work):
    """Runs whole passes for `--seconds`. One set-up round comes before
    each pass, so `setup_s`, like `pass_s`, is a median over the whole run
    rather than over a moment of it."""
    expect = expected(tool, args, work)
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        facts, setup_s = setup(tool, args, work)
        setups.append(setup_s)
        ps = Pass(dpg, tool, work)
        PASSES[args.workload](ps, facts, expect)
        passes.append(ps)
        log(f"pass {len(passes)}: {ps.wall_s:.3f} s, {ps.failed}/{ps.attempted} failed: "
            + " ".join(f"{name}={r.wall_s:.3f}s/{r.maxrss_kb // 1024}M"
                       for name, r in ps.results.items()))
    aves = {p.ave_cost for p in passes}
    errors = [e for p in passes for e in p.errors]
    if None in aves or len(aves) != 1:
        errors.append(f"headline cost missing or not deterministic across passes: {aves}")
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_seconds(passes),
        "ave_cost": passes[0].ave_cost,
        "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024.0,
    }
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END.items()},
    }


def unattributed(passes, mirrors):
    """`cli.unattributed_s`: for each command, its median CLI wall time
    over the run's passes minus its median mirror span over the run's
    trace iterations, summed over the pass's commands."""
    return sum(statistics.median(p.results[name].wall_s for p in passes)
               - statistics.median(m[name] for m in mirrors)
               for name in passes[0].results)


def traced(dpg, tool, args, work):
    """Alternates a timed CLI pass with one `perfbench trace` iteration
    until `--seconds` have passed; reports each layer metric's median."""
    facts, _ = setup(tool, args, work)
    expect = expected(tool, args, work)
    passes, rows, mirrors = [], [], []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < args.seconds:
        ps = Pass(dpg, tool, work)
        PASSES[args.workload](ps, facts, expect)
        passes.append(ps)
        layers = helper(tool, "trace", "--workload", args.workload, "--seed", str(args.seed),
                        "--dir", str(work))
        rows.append(layers["metrics"])
        mirrors.append(layers["commands"])
        os.replace(layers["spans_file"], work / f"spans-{len(rows)}.jsonl")
        log(f"iteration {len(rows)}: CLI pass {ps.wall_s:.3f} s, "
            f"mirror {sum(layers['commands'].values()):.3f} s: "
            + " ".join(f"{name}={r.wall_s:.3f}/{layers['commands'][name]:.3f}s"
                       for name, r in ps.results.items()))
    values = {name: statistics.median(r[name] for r in rows)
              for name in PER_LAYER if all(name in r for r in rows)}
    values["cli.unattributed_s"] = unattributed(passes, mirrors)
    errors = [e for p in passes for e in p.errors]
    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        errors.append(f"trace printed no value for {missing}")
    print(f"{'layer metric':<34} {'median':>16}  unit   ({len(rows)} iterations)")
    for name, unit in PER_LAYER.items():
        print(f"{name:<34} {values.get(name, float('nan')):>16.6g}  {unit}")
    print(f"(spans: {work}/spans-N.jsonl)")
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: metric(v, PER_LAYER[name]) for name, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    dpg, tool = build()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = (traced if args.trace else measure)(dpg, tool, args, work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
