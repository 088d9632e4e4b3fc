"""Fast self-check of the benchmark on tiny versions of its workloads.

    python3 perfbench/selfcheck.py

For each workload it checks that

* untraced and traced passes pass every check and give equal outputs,
  byte-identical ``serialize()`` text for the table workloads;
* the traced run restores every wrapped function;
* the counts repeat exactly across passes and across two traced runs,
  and the layer self times add up to the traced pass;
* a wrong answer, made on purpose by patching the library, fails checks.

Exits 0 when all hold and 1 otherwise.
"""

import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from koszulknots import homology, series  # noqa: E402
from koszulknots.homology import Window  # noqa: E402

TINY = (
    workloads.HookQ(window=Window(-24, 24, -6, 6)),
    workloads.T59(window=Window(0, 40, 0, 17)),
    workloads.CellsZ(window=Window(0, 20, 0, 8), k=10),
    workloads.Series(k=20, m3=11, m2=22,
                     window=series.SeriesWindow(-6, 6, -30, 30)),
)
SEED = 7


def _originals():
    return [owner.__dict__[attr] for owner, attr, _layer in spans.WRAPPED]


@contextmanager
def patched(owner, attr, fn):
    original = getattr(owner, attr)
    setattr(owner, attr, fn)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _one_less(rank):
    def wrong(*args, **kwargs):
        r = rank(*args, **kwargs)
        return r - 1 if r else r
    return wrong


def corrupted(workload):
    """Patches that make the library answer wrongly for this workload."""
    if workload.name == "series":
        return [patched(series, "exact_divide", lambda num, den: None)]
    return [patched(homology, "rank_exact", _one_less(homology.rank_exact)),
            patched(homology, "rank_mod_p", _one_less(homology.rank_mod_p))]


def check(workload, originals):
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(f"{workload.name}: {what}")

    plain = run.Run(workload, SEED)
    plain.measure(0)
    expect(plain.failed == 0, f"{plain.failed} untraced checks failed")

    traced = []
    for _ in range(2):
        r = run.Run(workload, SEED)
        tracer = spans.Tracer()
        try:
            layers = run.setup_layers(workload, SEED, tracer)
            r.measure(0, tracer)
        finally:
            expect(_originals() == originals, "wrappers not restored")
        expect(r.failed == 0, f"{r.failed} traced checks failed")
        traced.append((r, r.per_layer(layers)))

    (r1, m1), (r2, m2) = traced
    expect(r1.last_outputs[False] == r1.last_outputs[True],
           "traced and untraced outputs differ")
    if workload.name in ("hook_Q", "t59"):
        texts = [[out[1] for out in r1.last_outputs[traced_pass]]
                 for traced_pass in (False, True)]
        expect(texts[0] == texts[1], "serialize() differs when traced")
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"}
              for m in (m1, m2)]
    expect(counts[0] == counts[1], "counts differ between traced runs")
    expect(0.95 <= m1["trace.attributed_frac"][0] <= 1.0 + 1e-9,
           f"self times cover {m1['trace.attributed_frac'][0]:.3f} of "
           "the traced pass")

    bad = run.Run(workload, SEED)
    with ExitStack() as stack:
        for p in corrupted(workload):
            stack.enter_context(p)
        bad.measure(0)
    expect(bad.failed > 0, "a corrupted answer passed every check")
    expect(_originals() == originals, "patches not restored")
    return problems


def main():
    originals = _originals()
    problems = []
    for workload in TINY:
        found = check(workload, originals)
        print(f"{workload.name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
