"""Benchmark of koszulknots: exact homology tables, single-cell queries and
series assemblies, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``.  One run
is one process on one thread.  It repeats full passes over the workload's
inputs until ``--seconds`` have gone by (at least ``MIN_PASSES``), and checks
every output of every pass exactly, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import of ``koszulknots`` plus construction of the
  workload's presentations and catalogue, in a fresh process
  (``probe.py``) started after each pass, at least ``SETUP_SAMPLES`` times;
* ``item_ms.p50`` / ``item_ms.p90``: latency of one item (one table, one
  cell query, one assembly ...), percentiles over the workload's items;
* ``run_s``: wall time of one full pass over the items;
* ``peak_rss_mb``: peak resident memory of this process.

Every time is the best of its repeats in the run: an item's latency is its
fastest time over the run's passes, ``run_s`` is the sum of those (the
items of a pass share no state), and ``setup_s`` is the fastest set-up.
On a shared virtual machine other tenants slow a pass down, never speed it
up, in bursts of seconds to tens of seconds that add up to 80 % to a pass:
the same 203-cell pass took 13.4, 14.7 and 17.1 s in one process.  A
median, or the fastest whole pass, then still moves by about 20 % from run
to run; an item needs only one clean repeat.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, from the spans and counts of ``spans.py``; the spans
are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the checks that failed or raised, including items that raised.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
SETUP_SAMPLES = 5


def _pct(values, p):
    """p-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_pass(items, tracer=None):
    """One timed pass; returns (seconds, per-item seconds, outputs).

    An item that raises yields its exception as output; its check fails.
    """
    times, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for i, (_label, fn) in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed check
            traceback.print_exc(file=sys.stderr)
            out = exc
        times.append(clock() - t0)
        outputs.append(out)
    return clock() - start, times, outputs


def check_pass(workload, items, outputs, expect):
    """Exact checks of one pass; returns (attempted, failed)."""
    oks = []
    labelled = list(zip((label for label, _fn in items), outputs))
    for label, out in labelled:
        try:
            oks.append(not isinstance(out, Exception)
                       and bool(workload.check_item(label, out, expect)))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            oks.append(False)
    try:
        oks.extend(bool(ok) for ok in workload.check_pass(labelled, expect))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        oks.append(False)
    return len(oks), oks.count(False)


class Run:
    """Passes, checks and traces of one run of one workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.state = workload.setup(seed)
        self.expect = workload.prepare(self.state)
        self.items = workload.items(self.state)
        self.attempted = self.failed = 0
        self.pass_s, self.item_s = [], []  # item_s: per pass, per item
        self.traced_s, self.traced_item_s, self.traces = [], [], []
        self.last_outputs = {}

    def _timed(self, tracer=None):
        gc.collect()  # each pass starts from the same heap
        if tracer is None:
            seconds, times, outputs = run_pass(self.items)
            self.pass_s.append(seconds)
            self.item_s.append(times)
        else:
            tracer.begin_pass()
            tracer.install()
            try:
                seconds, times, outputs = run_pass(self.items, tracer)
            finally:
                tracer.uninstall()
            tr = tracer.end_pass()
            tr.finish()
            self.traced_s.append(seconds)
            self.traced_item_s.append(times)
            self.traces.append(tr)
        attempted, failed = check_pass(self.workload, self.items, outputs,
                                       self.expect)
        self.attempted += attempted
        self.failed += failed
        self.last_outputs[tracer is not None] = outputs

    def measure(self, seconds, tracer=None, between=None):
        """Passes until `seconds` have gone by; with a tracer, pairs of an
        untraced and a traced pass, in alternating order.  `between` is
        called after each pass or pair, outside the timed region."""
        start = time.perf_counter()
        n = 0
        while n < MIN_PASSES or time.perf_counter() - start < seconds:
            if tracer is None:
                self._timed()
            else:
                order = (None, tracer) if n % 2 == 0 else (tracer, None)
                for t in order:
                    self._timed(t)
            if between is not None:
                between()
            n += 1
        if tracer is not None:
            counts = [tr.counts for tr in self.traces]
            self.attempted += 1
            self.failed += any(c != counts[0] for c in counts)

    @staticmethod
    def best(item_s):
        """Each item's fastest time over the passes."""
        return [min(times) for times in zip(*item_s)]

    def end_to_end(self):
        best = self.best(self.item_s)
        return {
            "run_s": (sum(best), "s"),
            "item_ms.p50": (1e3 * _pct(best, 50), "ms"),
            "item_ms.p90": (1e3 * _pct(best, 90), "ms"),
        }

    def per_layer(self, setup_times):
        """Self times of the fastest traced pass, counts, waste ratios and
        the tracing overhead."""
        traced = min(self.traced_s)
        tr = self.traces[self.traced_s.index(traced)]
        selfs = tr.self_times()
        c = tr.counts

        def frac(part, whole):
            return part / whole if whole else 0.0

        m = {f"{layer}_s": (v, "s") for layer, v in selfs.items()
             if layer not in ("presentations.build", "series.catalogue")}
        m["presentations.build_s"] = (setup_times["presentations.build"], "s")
        m["series.catalogue_s"] = (setup_times["series.catalogue"], "s")
        for name in ("homology.enumerate.calls",
                     "homology.enumerate.monomials",
                     "homology.assemble.calls", "homology.assemble.nnz",
                     "homology.assemble.max_dim",
                     "homology.linalg.rank_calls",
                     "homology.linalg.snf_calls",
                     "homology.linalg.max_factor_bits",
                     "series.divide.calls", "series.divide.quotient_terms"):
            m[name] = (c[name], "count")
        calls = c["homology.enumerate.calls"]
        ranks = c["homology.linalg.rank_exact_calls"]
        m["homology.enumerate.repeat_frac"] = (
            frac(c["homology.enumerate.repeats"], calls), "ratio")
        m["homology.enumerate.repeat_frac_item"] = (
            frac(c["homology.enumerate.repeats_item"], calls), "ratio")
        m["homology.linalg.redundant_rank_frac"] = (
            frac(c["homology.linalg.redundant_ranks"], ranks), "ratio")
        m["homology.linalg.redundant_rank_frac_item"] = (
            frac(c["homology.linalg.redundant_ranks_item"], ranks), "ratio")
        traced_run = sum(self.best(self.traced_item_s))
        m["trace.run_s"] = (traced_run, "s")
        m["trace.overhead_frac"] = (
            traced_run / sum(self.best(self.item_s)) - 1, "ratio")
        m["trace.attributed_frac"] = (sum(selfs.values()) / traced, "ratio")
        return m


def setup_layers(workload, seed, tracer, samples=SETUP_SAMPLES):
    """Self time of the set-up layers in the fastest of several traced
    set-ups."""
    runs = []
    for _ in range(samples):
        tracer.begin_pass()
        tracer.install()
        try:
            workload.setup(seed)
        finally:
            tracer.uninstall()
        runs.append(tracer.end_pass().self_times())
    return min(runs, key=lambda r: sum(r.values()))


def setup_seconds(workload, seed):
    """Set-up time of the workload in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def write_spans(path, traces):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, tr in enumerate(traces):
            for sid, parent, item, name, start, end in tr.spans:
                fh.write(json.dumps({"pass": k, "id": sid, "parent": parent,
                                     "item": item, "name": name,
                                     "start": start, "end": end}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "koszulknots" / "__init__.py").is_file():
        print(f"perfbench: no koszulknots sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # after src/ is on the path
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    run = Run(workload, args.seed)
    if args.trace:
        import spans
        tracer = spans.Tracer()
        layers = setup_layers(workload, args.seed, tracer)
        run.measure(args.seconds, tracer)
        metrics = run.per_layer(layers)
        write_spans(HERE / "out" / f"spans-{workload.name}-{args.seed}.jsonl",
                    run.traces)
    else:
        # set-ups spread over the run, so that one slow moment of the
        # machine does not decide setup_s
        setups = []

        def probe():
            setups.append(setup_seconds(workload.name, args.seed))
        run.measure(args.seconds, between=probe)
        while len(setups) < SETUP_SAMPLES:
            probe()
        metrics = run.end_to_end()
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (min(setups), "s")

    print(f"{workload.name} seed={args.seed}: {len(run.items)} items; "
          f"{len(run.pass_s)} untraced and {len(run.traced_s)} traced passes; "
          f"item_ms over {len(run.items)} items, each its best of "
          f"{len(run.item_s)} passes")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {run.failed / run.attempted:14.6g} ratio "
          f"({run.failed}/{run.attempted} checks)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
