"""prsyn benchmark: four seeded exact-arithmetic workloads.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; it imports prsyn from ``src/`` and the
shared input generators from ``tests/conftest.py``.

``--trace 0`` measures the end-to-end metrics of one workload.  The run
builds the workload's inputs from ``--seed``, then goes through them in a
closed loop, in full passes.  The number of passes is fixed by
``--seconds`` and the workload's nominal pass time (at least three), so
every run does the same work and every item gets the same number of
timings.  Every item is checked exactly, and the output digest is compared
with the one recorded for the seed in ``digests.json``.  An item's latency
is the median over the passes of its CPU time, scaled by a reference kernel
timed next to it (see ``Loop``); ``items_per_s`` is the number of items
over the sum of those latencies.  ``setup_s`` is the median CPU time of
seven fresh interpreters that import prsyn and build the inputs, scaled the
same way.

``--trace 1`` runs three passes untraced, then builds the inputs again and
runs one pass with every public prsyn function wrapped (see ``tracer.py``),
and reports call counts and self times per function and per module; they
include the set-up, where the synthesis builders and the series-parallel
oracle run.  Its spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give every metric with its unit, the digests and the run metadata; a copy
goes to ``perfbench/out/report-*.json``.  The benchmark is single-threaded;
its only child processes are the set-up probes, run one at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

PASSES = 3
SETUP_PROBES = 7
# Timings are scaled to a machine where reference_kernel takes 1 ms of CPU
# time.  On a 2-vCPU x86-64 VM with Python 3.11.7 it took 0.9 to 2.1 ms,
# with the load on the host.
REF_NS = 1_000_000
SCALE_WINDOW = 9

MODULES = ("polyrat", "network", "analysis", "synth", "cli")
TRACED = {
    "polyrat": ("mul", "divmod", "gcd", "det_bareiss", "sylvester_determinant",
                "sturm_chain", "is_positive_real", "parse_ratfunc",
                "format_ratfunc"),
    "analysis": ("impedance", "phasor_solve", "blocked_report",
                 "blocked_open_short_check", "state_space", "ss_impedance",
                 "pbh_diagnostics", "impedance_series_parallel"),
    "synth": ("classify_biquad", "theorem2_step", "build_seven_element",
              "resultant_fixture_check", "n12_has_no_feasible_solution"),
    "network": ("parse_netlist", "serialize_netlist", "sp_tree", "dual",
                "open_oneport", "short_oneport"),
    "cli": ("main",),
}
EXIT_CODES = (0, 1, 2, 3, 4)

END_TO_END = (("items_per_s", "1/s"), ("item_ms.p50", "ms"),
              ("item_ms.p90", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_ms", "ms")]
    out += [("polyrat.max_degree", "count"), ("polyrat.max_coeff_bits", "bits"),
            ("analysis.impedance.calls_per_item", "calls/item")]
    out += [(f"cli.exit.{c}", "count") for c in EXIT_CODES]
    out += [(f"{m}.self_ms", "ms") for m in MODULES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import prsyn from ``src/`` and the shared generators from
    ``tests/conftest.py`` of this checkout."""
    if not (ROOT / "src" / "prsyn" / "__init__.py").is_file():
        fail(f"no prsyn sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "tests" / "conftest.py").is_file():
        fail(f"no {ROOT / 'tests' / 'conftest.py'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    # conftest.py imports pytest only for its fixture decorator.  A stand-in
    # keeps pytest's own import time out of setup_s.
    stub = types.ModuleType("pytest")
    stub.fixture = lambda fn=None, **_: fn if fn else (lambda f: f)
    real = sys.modules.get("pytest")
    sys.modules["pytest"] = stub
    try:
        import prsyn
        import workloads
    finally:
        if real is None:
            del sys.modules["pytest"]
        else:
            sys.modules["pytest"] = real
    if Path(prsyn.__file__).resolve().parent != ROOT / "src" / "prsyn":
        fail(f"imported prsyn from {prsyn.__file__}, not from this checkout")
    return prsyn, workloads


def workload_rng(names, name: str, seed: int) -> random.Random:
    return random.Random(seed * 16 + list(names).index(name))


def setup(workloads, name: str, seed: int, cycles: int, workdir: Path):
    wl = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    pool = wl.build(workload_rng(workloads.WORKLOADS, name, seed), cycles,
                    str(workdir.relative_to(ROOT)))
    return wl, pool


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def reference_kernel():
    """A fixed stdlib computation that calls no prsyn code, made of the three
    kinds of work prsyn does: polynomial products and remainders over
    Fractions with small and with large integers, and graph bookkeeping in
    dicts, sets and sorted tuples."""
    def poly(a, b):
        r = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                r[i + j] += x * y
        while len(r) >= len(b):
            f, k = r[-1] / b[-1], len(r) - len(b)
            r = [c - f * b[i - k] if i >= k else c for i, c in enumerate(r)][:-1]
        return r
    poly([Fraction(i + 1, i + 3) for i in range(10)],
         [Fraction(2 * i + 1, i + 5) for i in range(6)])
    poly([Fraction(3 ** (i + 25) + i, 7 ** (i % 9 + 9)) for i in range(7)],
         [Fraction(5 ** (i + 18) - 1, 11 ** (i % 5 + 6)) for i in range(5)])
    graph = {}
    for i in range(120):
        graph.setdefault(f"v{i % 23}", set()).add((f"e{i}", i % 11))
    for v in sorted(graph):
        edges = sorted(graph[v])
        tuple(e for e, w in edges if w % 2)
        sum(Fraction(w, 3) for _, w in edges)


def reference_ns() -> int:
    """CPU time of one reference_kernel call.  The collector is off while it
    runs, so the time does not depend on how many objects the workload
    holds."""
    gc.disable()
    try:
        start = time.process_time_ns()
        reference_kernel()
        return time.process_time_ns() - start
    finally:
        gc.enable()


def window_starts(n: int):
    """Start of the SCALE_WINDOW positions centred on each of ``n``,
    shifted to stay inside them."""
    half = SCALE_WINDOW // 2
    return [max(0, min(i - half, n - SCALE_WINDOW)) for i in range(n)]


class Loop:
    """Closed-loop driver: one item at a time, timed around ``run`` only.

    Timings are the process's CPU time.  On a shared virtual machine that
    time still swings by up to 1.8x within seconds, with the load on the
    host, and the swings affect all interpreted code much alike.  So after
    every item the loop also times ``reference_kernel``, and scales the
    item's timing by REF_NS over the median kernel time of the SCALE_WINDOW
    kernel runs around it: the timings read as on a machine where the
    kernel takes REF_NS.  An item's latency is the median of its scaled
    timings over the passes.
    """

    def __init__(self, wl, pool, tracer=None):
        self.wl, self.pool, self.tracer = wl, pool, tracer
        self.scaled_ns = {}         # item position -> scaled time per pass
        self.raw_ns = 0             # sum of the unscaled timings
        self.scales = []            # median scale of each pass
        self.attempted = self.failed = self.incorrect = self.skipped = 0
        self.first = {}             # item position -> canonical result
        self.inconsistent = 0
        self.exits = {}
        self.busy_s = 0.0

    def item(self, pos, it):
        wl, tr = self.wl, self.tracer
        self.attempted += 1
        if tr is not None:
            tr.item = pos
            t0 = tr.begin(tr.name_id("item"))
        start = time.process_time_ns()
        try:
            raw = wl.run(it)
        except Exception as exc:            # an escaped error is a failed item
            raw = exc
        elapsed = time.process_time_ns() - start
        if tr is not None:
            tr.end(tr.name_id("item"), t0)
        self.raw_ns += elapsed
        if isinstance(raw, Exception):
            self.failed += 1
            ok, canon = False, f"raised {type(raw).__name__}"
            if getattr(it, "known_defect", False):
                ok, canon = True, None
            if hasattr(it, "argv"):
                self.exits[1] = self.exits.get(1, 0) + 1
        else:
            ok, canon = wl.check(it, raw)
            if raw == "skipped":
                self.skipped += 1
            if hasattr(it, "argv"):
                self.exits[raw[0]] = self.exits.get(raw[0], 0) + 1
        if not ok:
            self.incorrect += 1
            print(f"incorrect: {wl.input_key(it)[:200]}", file=sys.stderr)
        prev = self.first.setdefault(pos, canon)
        if prev != canon:
            self.inconsistent += 1
        return elapsed

    def run(self, passes: int):
        """Make ``passes`` full passes over the pool."""
        t_start = time.perf_counter()
        for _ in range(passes):
            timings, ref = [], []
            for cycle in self.pool:
                for it in cycle:
                    timings.append(self.item(len(timings), it))
                    ref.append(reference_ns())
            scales = [REF_NS / statistics.median(ref[lo:lo + SCALE_WINDOW])
                      for lo in window_starts(len(ref))]
            self.scales.append(statistics.median(scales))
            for pos, (ns, scale) in enumerate(zip(timings, scales)):
                self.scaled_ns.setdefault(pos, []).append(ns * scale)
        self.busy_s = time.perf_counter() - t_start
        return self

    def latencies_ms(self):
        """Each item's median scaled timing, in ms, sorted."""
        return sorted(statistics.median(v) / 1e6 for v in self.scaled_ns.values())

    def outputs_digest(self) -> str:
        return digest(c for _, c in sorted(self.first.items()) if c is not None)


def setup_probe_seconds(name: str, seed: int, cycles: int) -> list:
    """CPU time (user and system) of fresh interpreters that import prsyn
    and build the inputs, each scaled as ``Loop`` scales an item, by the
    reference kernel run SCALE_WINDOW times just before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed), "--cycles", str(cycles)]
    out = []
    for _ in range(SETUP_PROBES):
        scale = REF_NS / statistics.median(reference_ns()
                                           for _ in range(SCALE_WINDOW))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.append((after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime) * scale)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace')[-500:]}")
    return out


def git_sha() -> str:
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
    return "unknown"


def metadata(seed: int) -> dict:
    src_loc = sum(len(p.read_text(encoding="utf-8").splitlines())
                  for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed, "src_loc": src_loc}


def trace_metrics(loop, plain, tracer, setup_calls) -> dict:
    stats = tracer.stats()
    m = {}
    module_self = dict.fromkeys(MODULES, 0)
    for name, (calls, self_ns) in stats.items():
        mod = name.split(".", 1)[0]
        if mod in module_self:
            module_self[mod] += self_ns
    for mod, fns in TRACED.items():
        for fn in fns:
            calls, self_ns = stats.get(f"{mod}.{fn}", (0, 0))
            m[f"{mod}.{fn}.calls"] = calls
            m[f"{mod}.{fn}.self_ms"] = self_ns / 1e6
    m["polyrat.max_degree"] = tracer.max_degree
    m["polyrat.max_coeff_bits"] = tracer.max_coeff_bits
    # the waste ratio counts the timed pass only, not the set-up
    m["analysis.impedance.calls_per_item"] = (
        (stats.get("analysis.impedance", (0, 0))[0]
         - setup_calls.get("analysis.impedance", (0, 0))[0]) / loop.attempted)
    for c in EXIT_CODES:
        m[f"cli.exit.{c}"] = loop.exits.get(c, 0)
    for mod in MODULES:
        m[f"{mod}.self_ms"] = module_self[mod] / 1e6
    m["trace.overhead_ratio"] = sum(plain.latencies_ms()) / sum(loop.latencies_ms())
    return m


def run_workload(args) -> int:
    t_setup = time.perf_counter()
    prsyn, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[args.workload]
    cycles = args.cycles or wl.cycles
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl, pool = setup(workloads, args.workload, args.seed, cycles, workdir)
        if args.setup_only:
            return 0
        in_process_setup_s = time.perf_counter() - t_setup
        inputs = digest(wl.input_key(it) for cyc in pool for it in cyc)
        if args.trace:
            from tracer import Tracer
            plain = Loop(wl, pool).run(PASSES)
            tracer = Tracer()
            tracer.install(prsyn)
            try:
                _, traced_pool = setup(workloads, args.workload, args.seed,
                                       cycles, workdir)
                setup_calls = tracer.stats()
                loop = Loop(wl, traced_pool, tracer).run(1)
            finally:
                tracer.uninstall()
            metrics = trace_metrics(loop, plain, tracer, setup_calls)
            units = dict(per_layer_names())
            if plain.outputs_digest() != loop.outputs_digest():
                loop.inconsistent += 1
            attempted = plain.attempted + loop.attempted
            failed = plain.failed + loop.failed
            incorrect = plain.incorrect + loop.incorrect
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv"
            kept = tracer.write_spans(spans_path)
            shown = {}
            extra = {"trace.spans_kept": kept,
                     "trace.spans_dropped": tracer.dropped,
                     "trace.spans_file": str(spans_path.relative_to(ROOT))}
        else:
            passes = max(PASSES, round(args.seconds * wl.cycles
                                       / (wl.pass_seconds * cycles)))
            loop = plain = Loop(wl, pool).run(passes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            probes = setup_probe_seconds(args.workload, args.seed, cycles)
            t = loop.latencies_ms()
            p90 = statistics.quantiles(t, n=10)[-1]
            metrics = {
                "items_per_s": 1000 * len(t) / sum(t),
                "item_ms.p50": statistics.median(t),
                "item_ms.p90": p90,
                "setup_s": statistics.median(probes),
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
            attempted, failed, incorrect = loop.attempted, loop.failed, loop.incorrect
            # fail_ratio can be 0, so it is derived from the JSON line's
            # ``failed`` and ``attempted`` rather than listed as a metric
            shown = {"fail_ratio": (failed / attempted, "ratio"),
                     "item_ms.n": (len(t), "count")}
            extra = {"item_ms.beyond_p90": sum(1 for x in t if x > p90),
                     "setup_s.probes": probes,
                     "setup_s.in_process": in_process_setup_s,
                     "items_per_s.unscaled": 1e9 * loop.attempted / loop.raw_ns,
                     "passes": passes,
                     "pass_scales": loop.scales,
                     "seconds_measured": loop.busy_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outputs = plain.outputs_digest()
    recorded = None
    if cycles == wl.cycles and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(
            str(args.seed))
    problems = []
    if incorrect:
        problems.append(f"{incorrect} item(s) gave a wrong result")
    if loop.inconsistent:
        problems.append("an item gave different results in two passes")
    if recorded is not None:
        if recorded["inputs"] != inputs:
            problems.append("inputs differ from the recorded ones "
                            "(shared generators changed?)")
        elif recorded["outputs"] != outputs:
            problems.append("output digest differs from the recorded one")
    correct = not problems

    meta = metadata(args.seed)
    print(f"workload {args.workload}: {wl.why}")
    print("metadata " + " ".join(f"{k}={v}" for k, v in meta.items()))
    match = recorded == {"inputs": inputs, "outputs": outputs}
    print(f"digest inputs={inputs} outputs={outputs} recorded="
          + ("none" if recorded is None else "match" if match else "MISMATCH"))
    print(f"items attempted={attempted} failed={failed} skipped={loop.skipped} "
          f"incorrect={incorrect}")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value} {unit}")
    for name, value in extra.items():
        print(f"info {name} = {value}")
    for p in problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {p}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "trace": args.trace, "metadata": meta,
              "digests": {"inputs": inputs, "outputs": outputs},
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              "info": extra}
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in its own fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.cycles:
            cmd += ["--cycles", str(args.cycles)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="verify_corpus, resultant_fixtures, ladder_impedance, "
                         "cli_batch, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycles", type=int, default=0,
                    help="input cycles per pass (default: the workload's own); "
                         "digests are recorded for the default only")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, ("verify_corpus", "resultant_fixtures",
                              "ladder_impedance", "cli_batch"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
