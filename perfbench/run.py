"""End-to-end benchmark of doubledist, with per-layer numbers from a traced run.

    python3 perfbench/run.py --workload dd_wgd_mis --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): dd_wgd_mis, dd_wgd_dcj, reduce_sat, or
`all` for the three in turn.  One process, one thread, closed loop: each
instance starts when the previous one has finished and been checked.

Set-up imports the library and builds the seeded inputs.  The timed phase
solves every instance once (a pass), then keeps solving, instance by
instance, until --seconds have gone by.  Every output is checked.

Times are scaled to a reference machine speed: a fixed pure-Python probe
loop is timed before every instance, and each time is multiplied by
PROBE_REFERENCE_S over the probe's local median.  The raw wall-clock
figures are printed beside them and kept in the run record.

--trace 0 prints the end-to-end metrics; --trace 1 first times one pass
unwrapped, then wraps the library's layer boundaries and reports per-layer
sums over a traced pass, with the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run (environment, input fingerprint,
workload characterization, metrics and, when traced, the spans) is written
to .perfbench-out/ under the repository root.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("dd_wgd_mis", "dd_wgd_dcj", "reduce_sat")
DEFAULT_SEED = 1  # the seed golden.json was frozen at
# set-up builds the inputs in this many interleaved chunks and reports the
# median chunk time times the number of chunks, which a stray pause moves less
SETUP_CHUNKS = 5
# Times are reported as on a machine where probe() takes exactly this long.
# On shared hosts the speed drifts by up to half over seconds to minutes;
# the probe slows with it, the program's work does not change.
PROBE_REFERENCE_S = 1e-3
PROBE_WINDOW = 3  # a sample's speed: median of the probes within 3 of its own
_PROBE_TABLE = tuple(range(512))

END_TO_END = {
    "solve_s": "s",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer time metric -> the span whose inclusive time it sums
PER_LAYER_TIMES = {
    "genomes.cognate_pair_s": "genomes.cognate_pair",
    "genomes.parse_s": "genomes.parse",
    "genomes.format_s": "genomes.format",
    "genomes.classify_s": "genomes.classify",
    "genomes.singularize_s": "genomes.singularize",
    "abg.build_s": "abg.build",
    "abg.enumerate_s": "abg.enumerate",
    "abg.rescore_s": "abg.rescore",
    "solver.mis_s": "solver.mis",
    "solver.naive_s": "solver.naive",
    "reduction.normalize_s": "reduction.normalize",
    "reduction.build_s": "reduction.build",
    "reduction.verify_s": "reduction.verify",
    "reduction.extract_s": "reduction.extract",
    "kernels.best_resolution_s": "kernels.best_resolution",
    "kernels.cycles_s": "kernels.cycles",
    "kernels.paths_s": "kernels.paths",
    "kernels.walk_s": "kernels.walk",
}
# derived from span self times and call counts, from the checks, or from
# the probe
PER_LAYER_OTHER = {
    "solver.mis_search_s": "s",
    "solver.mis_nodes": "count",
    "solver.mis_ns_per_node": "ns",
    "solver.naive_resolutions": "count",
    "solver.naive_ns_per_resolution": "ns",
    "kernels.walk_calls": "count",
    "abg.a_star": "count",
    "abg.candidates": "count",
    "abg.components": "count",
    "abg.largest_component": "count",
    "trace.overhead": "ratio",
    "machine.probe_ms": "ms",
}


def import_library():
    """Import doubledist from this checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "doubledist" / "__init__.py").is_file():
        raise SystemExit("perfbench: no doubledist sources under %s" % src)
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    import doubledist  # noqa: F401

    import workloads  # noqa: F401
    import tracer  # noqa: F401

    return time.perf_counter() - t0


def probe():
    """Time a fixed pure-Python loop that allocates nothing (about 1 ms)."""
    t0 = time.perf_counter()
    acc = 0
    table = _PROBE_TABLE
    for i in range(6000):
        acc = (acc + table[(i * 7) & 511] * (i & 15)) & 0xFFFF
    return time.perf_counter() - t0


def environment():
    import doubledist

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "kernel_backend": doubledist.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def load_golden(path=GOLDEN):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def _characterize(chars):
    a_star = sorted(c["a_star"] for c in chars)
    out = {
        "instances": len(chars),
        "a_star_min_median_max": [a_star[0], statistics.median(a_star), a_star[-1]],
        "components_total": sum(c["components"] for c in chars),
        "largest_component_max": max(c["largest_component"] for c in chars),
        "split_share": sum(c["components"] > 1 for c in chars) / len(chars),
        "candidates_total": sum(c["candidates"] for c in chars),
    }
    if "variables" in chars[0]:
        out["variables_min_max"] = [min(c["variables"] for c in chars),
                                    max(c["variables"] for c in chars)]
    return out


class Run:
    """One workload at one seed: set-up, timed passes, checks.

    A timed call yields a sample (seconds, index of the probe just before
    it); `scaled` turns a sample into reference seconds."""

    def __init__(self, name, seed, count=None, golden=None, trace=None):
        import workloads

        self.name = name
        self.seed = seed
        self.make, self.solve, self.check = workloads.WORKLOADS[name]
        self.count = count or workloads.DEFAULT_COUNT[name]
        self.trace = trace
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.chars = {}
        self.golden = [None] * self.count
        self.golden_fingerprint = None
        if golden and golden["seed"] == seed and name in golden["workloads"]:
            frozen = golden["workloads"][name]
            self.golden = (frozen["dd"] + [None] * self.count)[: self.count]
            if self.count == workloads.DEFAULT_COUNT[name]:
                self.golden_fingerprint = frozen["fingerprint"]

    def _fail(self, slot, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("slot %d: %s" % (slot, message))

    def timed(self, fn, arg):
        self.probes.append(probe())
        t0 = time.perf_counter()
        out = fn(arg)
        return out, (time.perf_counter() - t0, len(self.probes) - 1)

    def scaled(self, sample):
        seconds, k = sample
        window = self.probes[max(0, k - PROBE_WINDOW): k + PROBE_WINDOW + 1]
        return seconds * PROBE_REFERENCE_S / statistics.median(window)

    def setup(self, import_s):
        """Build the inputs; returns the set-up time in reference seconds."""
        import workloads

        self.inputs = [None] * self.count
        chunks = []
        for j in range(SETUP_CHUNKS):
            chunks.append([])
            for i in range(j, self.count, SETUP_CHUNKS):
                if self.trace:
                    self.trace.instance = i
                self.inputs[i], sample = self.timed(lambda slot: self.make(self.seed, slot), i)
                chunks[-1].append(sample)
        self.fingerprint = workloads.fingerprint(self.inputs)
        if self.golden_fingerprint not in (None, self.fingerprint):
            self.attempted += 1
            self._fail(-1, "input fingerprint %s differs from the frozen %s"
                       % (self.fingerprint, self.golden_fingerprint))
        self.order = list(range(self.count))
        random.Random("order:%s:%d" % (self.name, self.seed)).shuffle(self.order)
        chunk_s = [sum(self.scaled(s) for s in chunk) for chunk in chunks]
        return self.scaled((import_s, 0)) + SETUP_CHUNKS * statistics.median(chunk_s)

    def one_pass(self, deadline=None):
        """Solve the instances in order, stopping early only at a deadline.
        Returns ({slot: sample}, complete)."""
        samples = {}
        paused = self.trace.paused if self.trace else contextlib.nullcontext

        def solve(inp):
            if not self.trace:
                return self.solve(inp)
            with self.trace.span("instance"):
                return self.solve(inp)

        for i in self.order:
            if deadline is not None and time.perf_counter() >= deadline:
                return samples, False
            inp = self.inputs[i]
            if self.trace:
                self.trace.instance = i
            self.attempted += 1
            try:
                out, samples[i] = self.timed(solve, inp)
            except Exception as exc:  # a failed instance is counted, not fatal
                self._fail(i, "%s: %s" % (type(exc).__name__, exc))
                continue
            with paused():
                try:
                    char = self.check(inp, out, self.golden[i])
                except Exception as exc:
                    self._fail(i, "%s: %s" % (type(exc).__name__, exc))
                    continue
            if self.chars.setdefault(i, char) != char:
                self._fail(i, "counts differ between passes: %r != %r" % (char, self.chars[i]))
        return samples, True

    def timed_passes(self, seconds, deadline_from=None):
        """A first complete pass, then passes until `seconds` have elapsed."""
        gc.collect()
        start = time.perf_counter() if deadline_from is None else deadline_from
        passes = []
        while True:
            if self.trace:
                self.trace.pass_no = len(passes)
            passes.append(self.one_pass(start + seconds if passes else None))
            if time.perf_counter() >= start + seconds:
                return passes

    def pass_seconds(self, passes):
        """Reference seconds of each complete pass."""
        return [sum(map(self.scaled, samples.values())) for samples, complete in passes if complete]

    def latency_summary(self, passes, convert):
        """(solve, p50, p90) in seconds over each instance's median sample.
        A median, not a minimum: a minimum would fall with the number of
        passes a run happens to fit."""
        per_instance = {}
        for samples, _ in passes:
            for i, sample in samples.items():
                per_instance.setdefault(i, []).append(convert(sample))
        latency = sorted(statistics.median(ts) for ts in per_instance.values()) or [0.0]
        return (sum(latency),) + _quantiles(latency)


def end_to_end(run, passes, setup_s):
    solve, p50, p90 = run.latency_summary(passes, run.scaled)
    wall = run.latency_summary(passes, lambda sample: sample[0])
    metrics = {
        "solve_s": solve,
        "instance_p50_ms": p50 * 1000.0,
        "instance_p90_ms": p90 * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {"solve_s": wall[0], "instance_p50_ms": wall[1] * 1000.0,
            "instance_p90_ms": wall[2] * 1000.0}
    return metrics, wall


def per_layer(run, trace, traced_passes, untraced_s):
    chars = list(run.chars.values())
    totals = trace.totals(-1)  # set-up spans carry pass -1
    by_pass = [trace.totals(p) for p, (_, complete) in enumerate(traced_passes) if complete]
    metrics = {"genomes.cognate_pair_s": totals.get("genomes.cognate_pair", (0.0,))[0]}

    def median_of(span, field):
        return statistics.median(t.get(span, (0.0, 0.0, 0))[field] for t in by_pass)

    for metric, span in PER_LAYER_TIMES.items():
        if metric != "genomes.cognate_pair_s":
            metrics[metric] = median_of(span, 0)
    mis_nodes = sum(c["nodes"] for c in chars if c["engine"] == "mis")
    resolutions = sum(c["nodes"] for c in chars if c["engine"] == "naive")
    metrics["solver.mis_search_s"] = median_of("solver.mis", 1)
    metrics["solver.mis_nodes"] = mis_nodes
    metrics["solver.mis_ns_per_node"] = (
        metrics["solver.mis_search_s"] / mis_nodes * 1e9 if mis_nodes else 0.0)
    metrics["solver.naive_resolutions"] = resolutions
    metrics["solver.naive_ns_per_resolution"] = (
        metrics["kernels.best_resolution_s"] / resolutions * 1e9 if resolutions else 0.0)
    metrics["kernels.walk_calls"] = median_of("kernels.walk", 2)
    metrics["abg.a_star"] = sum(c["a_star"] for c in chars)
    metrics["abg.candidates"] = sum(c["candidates"] for c in chars)
    metrics["abg.components"] = sum(c["components"] for c in chars)
    metrics["abg.largest_component"] = max((c["largest_component"] for c in chars), default=0)
    metrics["trace.overhead"] = statistics.median(run.pass_seconds(traced_passes)) / untraced_s
    metrics["machine.probe_ms"] = statistics.median(run.probes) * 1000.0
    return metrics


def run_workload(name, seed, seconds, trace, count=None, golden=None, import_s=0.0):
    """Run one workload; returns the result record (see the module doc)."""
    import tracer

    tr = tracer.Tracer() if trace else None
    run = Run(name, seed, count, golden, tr)
    with tr.installed() if tr else contextlib.nullcontext():
        setup_s = run.setup(import_s)
    wall = None
    if not tr:
        passes = run.timed_passes(seconds)
        metrics, wall = end_to_end(run, passes, setup_s)
        units = END_TO_END
    else:
        start = time.perf_counter()
        run.trace = None
        untraced_s = run.pass_seconds(run.timed_passes(0))[0]
        run.trace = tr
        with tr.installed():
            traced = run.timed_passes(seconds, deadline_from=start)
        metrics = per_layer(run, tr, traced, untraced_s)
        units = {m: "s" for m in PER_LAYER_TIMES}
        units.update(PER_LAYER_OTHER)
    return {
        "workload": name,
        "seed": seed,
        "instances": run.count,
        "fingerprint": run.fingerprint,
        "characterization": _characterize(list(run.chars.values())) if run.chars else {},
        "errors": run.errors,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "wall_clock": wall,
        "probe_ms_median": statistics.median(run.probes) * 1000.0,
        "spans": tr.spans if tr else None,
    }


def report(result, env, trace):
    name = result["workload"]
    print("# %s seed=%d backend=%s python=%s nproc=%d commit=%s" % (
        name, result["seed"], env["kernel_backend"], env["python"], env["nproc"], env["commit"]))
    print("# %s inputs: %d instances, sha256 %s" % (name, result["instances"], result["fingerprint"]))
    print("# %s characterization: %s" % (name, json.dumps(result["characterization"], sort_keys=True)))
    if result["wall_clock"]:
        print("# %s wall clock, unscaled, probe median %.4f ms: %s" % (
            name, result["probe_ms_median"],
            ", ".join("%s %.6g" % kv for kv in result["wall_clock"].items())))
    for err in result["errors"]:
        print("# %s FAILED %s" % (name, err))
    for metric, m in result["metrics"].items():
        print("%s %s %.6g %s" % (name, metric, m["value"], m["unit"]))
    print("%s failed_frac %.6g ratio (%d of %d attempted)" % (
        name, result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, environment=env)
    path = OUT_DIR / ("%s-seed%d-trace%d.json" % (name, result["seed"], trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    env = environment()
    golden = load_golden()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              golden=golden, import_s=import_s if name == names[0] else 0.0)
        report(result, env, args.trace)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], m): v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
