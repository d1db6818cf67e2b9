#!/usr/bin/env python3
"""Benchmark of the vlcmap pipeline: map build and reduction, GA association, sweep.

Run from the repository root, one workload per process:

    python3 vlcbench/run.py --workload map_ref --seed 1 --seconds 15 --trace 0

or every workload, end-to-end table then per-layer table:

    for w in map_ref map_fine sweep_window assoc_scatter; do
        for t in 0 1; do python3 vlcbench/run.py --workload $w --seed 1 --seconds 15 --trace $t; done
    done

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
repository root says why each was chosen and bounds each end-to-end metric.

One process, one caller, no extra threads: a closed loop that starts the
next operation when the previous one has returned.  Set-up runs several
times and its median is ``setup_s``; the first operation is a warm-up, timed
on its own and kept out of the ``op_*`` figures; then operations run until
``--seconds`` have passed.  Every output is checked, and a digest of each
operation's artifacts (wall-clock fields left out) is recorded.

With ``--trace 1`` the measuring time is split: the first half runs the
package untraced, the second half replays the same inputs with every layer
function wrapped in a span (see ``tracing.py``).  The per-layer table comes
from the traced half, and the tracing overhead from comparing the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the figures for a reader.  Spans, digests and per-operation times go
to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

from tracing import END, FAILED, LAYERS, NAME, PARENT, START, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# Private methods whose calls are counted, not spanned: the GA's per-genome repair.
COUNTED = (("assoc", "_AssignmentProblem", "repair"),)
# JSON fields holding wall-clock times; the only fields left out of digests.
WALL_CLOCK_FIELDS = ("build_seconds", "reduce_seconds", "elapsed_s", "_elapsed")


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in WALL_CLOCK_FIELDS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def read_artifacts(outdir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(outdir)): p.read_bytes()
        for p in sorted(outdir.rglob("*"))
        if p.is_file()
    }


def digest(files: dict[str, bytes]) -> str:
    """SHA-256 over every artifact, with wall-clock JSON fields removed."""
    h = hashlib.sha256()
    for name, data in files.items():
        if name.endswith(".json") and any(f'"{k}"'.encode() in data for k in WALL_CLOCK_FIELDS):
            data = json.dumps(_strip(json.loads(data)), sort_keys=True).encode()
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile; the single value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Runner:
    """Runs one workload's operations, checks them and keeps their timings."""

    def __init__(self, workload):
        self.wl = workload
        self.tracer = None  # set while the operations run traced
        self.attempted = 0
        self.failed = 0
        self.facts: list[dict] = []
        self.digests: list[str] = []
        self.setup_ok = True
        # Artifacts of the first run of input 1, and the number of files whose
        # bytes differ when input 1 runs again.
        self._first_files: dict[str, bytes] | None = None
        self.nondeterministic = 0

    @contextmanager
    def traced(self, tracer, **install):
        """Run the enclosed operations with the tracer's wrappers installed."""
        tracer.install(**install)
        self.tracer = tracer
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer = None

    def _timed(self, label: str, fn, *args):
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0
        with self.tracer.span(label) as rec:
            out = fn(*args)
        return out, rec[END] - rec[START]

    def setup(self, reps: int) -> list[float]:
        times = [self._timed("bench.setup", self.wl.setup)[1] for _ in range(reps)]
        problems = self.wl.verify_setup()
        for p in problems:
            print(f"# setup check failed: {p}", file=sys.stderr)
        self.setup_ok = not problems
        return times

    def op(self, i: int) -> tuple[float, dict[str, bytes] | None]:
        """Run, time and check input ``i``; returns (seconds, artifacts or None)."""
        self.attempted += 1
        shutil.rmtree(self.wl.outdir, ignore_errors=True)
        self.wl.outdir.mkdir(parents=True)
        try:
            out, dt = self._timed("bench.op", self.wl.run, i)
            problems = self.wl.check(i, out)
            facts = self.wl.facts(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return math.nan, None
        files = read_artifacts(self.wl.outdir)
        self.digests.append(digest(files))
        if i == 1 and self._first_files is None:
            self._first_files = files
        elif i == 1:
            self.nondeterministic = sum(
                files.get(k) != v for k, v in self._first_files.items()
            ) + len(files.keys() - self._first_files.keys())
        if problems:
            for p in problems:
                print(f"# op {i} check failed: {p}", file=sys.stderr)
            self.failed += 1
        else:
            self.facts.append(facts)
        return dt, files

    def loop(self, first: int, seconds: float) -> list[float]:
        """Whole rounds of inputs first, first+1, ... until ``seconds`` have passed."""
        times, t_end = [], time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            for i in range(first + len(times), first + len(times) + self.wl.cycle):
                times.append(self.op(i)[0])
        return times


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _finite(times: list[float]) -> list[float]:
    """Times of the operations that completed; a failed one is NaN."""
    return [t for t in times if not math.isnan(t)]


def _rate(times: list[float]) -> float:
    done = _finite(times)
    return len(done) / sum(done)


def end_to_end(setup_times, op_times, facts) -> dict[str, tuple[float, str]]:
    """The bounded metrics.  Times leave out the warm-up op; the two rate
    guards take the answers of every op that passed its checks, warm-up included."""
    ok = _finite(op_times)
    sums = [r for f in facts for r in f["sum_rates"]]
    mins = [r for f in facts for r in f["min_rates"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(ok), "s"),
        "op_p90_s": (quantile(ok, 0.9), "s"),
        "ops_per_s": (_rate(ok), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sum_rate_mean": (_mean(sums), "bit/use"),
        "min_user_rate_p50": (statistics.median(mins) if mins else 0.0, "bit/use"),
    }


def _span_tree(spans) -> tuple[list[float], list[int]]:
    """Time each span's direct children cover, and the root span of each span."""
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for sid, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += s[END] - s[START]
            root[sid] = root[parent]
    return child, root


def per_layer(tracer, facts, untraced_times, traced_times, ndiff: int):
    """The per-layer table of the traced half: per operation unless the unit says otherwise."""
    spans = tracer.spans
    child, root = _span_tree(spans)
    ops = {sid for sid, s in enumerate(spans) if s[NAME] == "bench.op"}
    setups = {sid for sid, s in enumerate(spans) if s[NAME] == "bench.setup"}
    n_ops = len(ops)
    op_s = 1.0 / _rate(traced_times)

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}  # self time by span name
    setup_incl: dict[str, float] = {}
    in_ops = 0
    for sid, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if root[sid] in setups and sid not in setups:
            setup_incl[name] = setup_incl.get(name, 0.0) + dur
        if root[sid] in ops and sid not in ops:
            in_ops += 1
            incl[name] = incl.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + dur - child[sid]

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_s = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer) / n_ops
        m[f"{layer}.self_s"] = (self_s, "s/op")
        m[f"{layer}.self_share"] = (self_s / op_s, "share")
    for name, fields in (
        ("assoc.solve_association", ("calls", "s")),
        ("assoc.order_at", ("calls", "s")),
        ("assoc.iterative_rate_update", ("s",)),
        ("cpgd.greedy_order", ("calls", "s")),
        ("decmap.build_map", ("s",)),
        ("decmap.reduce_map", ("s",)),
        ("decmap.save_map", ("s",)),
        ("decmap.load_map", ("s",)),
        ("decmap.cell_at", ("calls",)),
        ("channel.gain_vector", ("calls", "s")),
        ("rates.model_at_position", ("calls", "s")),
    ):
        if "calls" in fields:
            m[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "count/op")
        if "s" in fields:
            m[f"{name}.s"] = (incl.get(name, 0.0) / n_ops, "s/op")
    m["decmap.reduce_map.self_s"] = (own.get("decmap.reduce_map", 0.0) / n_ops, "s/op")
    greedy_calls = calls.get("cpgd.greedy_order", 0)
    m["cpgd.greedy_order.us_per_call"] = (
        1e6 * incl.get("cpgd.greedy_order", 0.0) / greedy_calls if greedy_calls else 0.0, "us"
    )
    for driver in ("run_map_experiment", "run_assoc_experiment", "run_sweep_experiment"):
        m[f"experiments.{driver}.self_s"] = (own.get(f"experiments.{driver}", 0.0) / n_ops, "s/op")
    m["experiments.nondeterministic_artifacts"] = (ndiff, "count")
    for name in ("signaling.build_layer_set", "sceneio.reference_scene"):
        m[f"{name}.s"] = (setup_incl.get(name, 0.0) / len(setups), "s/setup")
    m["decmap.build_map.setup_s"] = (setup_incl.get("decmap.build_map", 0.0) / len(setups),
                                     "s/setup")

    # Counts taken from the traced operations' inputs and outputs.
    def fact(key):
        return _mean(f[key] for f in facts if key in f)

    ga_evals = sum(n for sid, n in tracer.counts.items() if sid >= 0 and root[sid] in ops)
    m["assoc.ga_evals"] = (ga_evals / n_ops, "count/op")
    m["assoc.refine_rounds"] = (_mean(r for f in facts for r in f.get("refine_rounds", [])),
                                "count/solve")
    m["assoc.refine_converged_share"] = (
        _mean(c for f in facts for c in f.get("refine_converged", [])), "share"
    )
    m["assoc.position_reuse_share"] = (fact("position_reuse_share"), "share")
    m["assoc.served_users"] = (fact("served_users"), "count/op")
    m["decmap.build_map.derived_share"] = (fact("derived_share"), "share")
    m["decmap.reduce_map.active_cells"] = (fact("active_cells"), "count")
    m["decmap.reduce_map.dist_bytes"] = (fact("dist_bytes"), "B")
    m["decmap.reduce_map.peak_mb"] = (max(tracer.peaks.get("decmap.reduce_map", [0])) / 2**20,
                                      "MB")
    m["decmap.reduce_map.compression_ratio"] = (fact("compression_ratio"), "share")
    m["decmap.save_map.bytes"] = (fact("map_bytes"), "B/op")
    m["trace.ops_per_s"] = (_rate(traced_times), "1/s")
    m["trace.overhead_share"] = (1.0 - _rate(traced_times) / _rate(untraced_times), "share")
    m["trace.spans_per_op"] = (in_ops / n_ops, "count/op")
    return m


def sanity_failures(tracer, facts, ga_evals_per_solve: int) -> list[str]:
    """Traced counts that must equal what the inputs and outputs imply."""
    spans = tracer.spans
    _, root = _span_tree(spans)
    bad = []
    # Each map build of the traced ops calls greedy_order once per directly
    # solved cell, as its summary reports.
    builds = [sid for sid, s in enumerate(spans)
              if s[NAME] == "decmap.build_map" and spans[root[sid]][NAME] == "bench.op"]
    greedy = dict.fromkeys(builds, 0)
    for s in spans:
        if s[NAME] == "cpgd.greedy_order":
            p = s[PARENT]
            while p >= 0 and p not in greedy:
                p = spans[p][PARENT]
            if p >= 0:
                greedy[p] += 1
    if [greedy[b] for b in builds] != [c for f in facts for c in f.get("computed_cells", [])]:
        bad.append("greedy_order calls per map build differ from the directly solved cells")
    # Every completed association search scores the configured number of genomes.
    for sid, s in enumerate(spans):
        if s[NAME] == "assoc.solve_association" and not s[FAILED]:
            if tracer.counts.get(sid, 0) != ga_evals_per_solve:
                bad.append(f"{tracer.counts.get(sid, 0)} GA evaluations in one solve; "
                           f"the GA config gives {ga_evals_per_solve}")
    return bad


def report(metrics: dict[str, tuple[float, str]]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"# {name:42s} {value:14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "vlcmap" / "__init__.py").is_file():
        print(f"error: no vlcmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import GA_EVALS_PER_SOLVE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_root / f"{tag}-work"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    runner = Runner(wl)
    problems: list[str] = []
    try:
        with runner.traced(tracer, counted=COUNTED) if tracer else nullcontext():
            setup_times = runner.setup(SETUP_REPS)
        warmup_s, _ = runner.op(0)
        if tracer is None:
            op_times = runner.loop(1, args.seconds)
        else:
            # Untraced first half, then the same inputs again under the tracer.
            op_times = runner.loop(1, args.seconds / 2)
            untraced_digests = runner.digests[1:]
            first_facts = len(runner.facts)
            with runner.traced(tracer, counted=COUNTED):
                traced_times = [runner.op(i)[0] for i in range(1, 1 + len(op_times))]
            traced_facts = runner.facts[first_facts:]
            if runner.digests[len(untraced_digests) + 1:] != untraced_digests:
                problems.append("replayed inputs gave different artifacts")
            problems += sanity_failures(tracer, traced_facts, GA_EVALS_PER_SOLVE)
            if any(s[NAME] == "decmap.reduce_map" for s in tracer.spans):
                tracer.install_memory_probe("decmap", "reduce_map")
                runner.op(1)
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if wl.same_input and len(set(runner.digests)) > 1:
        problems.append("identical inputs gave different artifacts")
    for p in problems:
        print(f"# check failed: {p}", file=sys.stderr)

    n_ok = len(_finite(op_times))
    if n_ok == 0 or (args.trace and not _finite(traced_times)):
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} ops attempted, {runner.failed} failed, "
          f"error_share {runner.failed / runner.attempted:.6g}")
    print(f"# warm-up op {warmup_s:.6g} s, kept out of op_*; {n_ok} timed ops")
    print(f"# artifact digest of the first op: {runner.digests[0] if runner.digests else None}")
    if args.trace:
        metrics = per_layer(tracer, traced_facts, op_times, traced_times,
                            runner.nondeterministic)
        tracer.dump(out_root / f"{tag}-spans.json")
    else:
        metrics = end_to_end(setup_times, op_times, runner.facts)
        if n_ok >= 20:
            q = math.floor(100 * (1 - 10 / n_ok))
            print(f"# highest percentile with >=10 ops beyond it: p{q} = "
                  f"{quantile(_finite(op_times), q / 100):.6g} s")
        else:
            print(f"# op_p90_s is over n={n_ok} ops; no percentile has 10 ops beyond it")
        if hasattr(wl, "anchors"):
            print(f"# anchors_per_s {metrics['ops_per_s'][0] * len(wl.anchors()):.6g}")
    result = {
        "correct": runner.failed == 0 and runner.setup_ok and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report(metrics),
    }
    out_root.mkdir(exist_ok=True)
    with open(out_root / f"{tag}.json", "w") as fh:
        json.dump({**result, "setup_s": setup_times, "warmup_s": warmup_s,
                   "op_s": op_times, "digests": runner.digests, "problems": problems}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
