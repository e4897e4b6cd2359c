"""classify-cold: build gallery examples over GF(2), GF(3) and GF(4) and
classify each with all predicates, starting from an empty projective-space
cache.

Why: this is where the closure kernels (span-membership tests, the
coordinate and quotient closures, flat enumeration) and the classification
predicates do their work, over both closure paths (full-PG span
enumeration and subgeometry membership) and with sampled as well as
exhaustive bundle checks.  The seed orders the examples; each verdict
report is compared with the one recorded in golden.json.

The job list is every example constructible over GF(2), the GF(3) examples
that classify in under about 1.5 s, and the elliptic quadric over GF(4).  A
pass takes about 6 s, so a run can repeat it.  The other GF(3) examples and
the GF(4) cone are left out: with them one pass takes about 30 s, which a
run cannot repeat.
"""

from __future__ import annotations

import gc
import random
import time

from common import Round, cache_clear, digest

NAME = "classify-cold"

GF2_EXAMPLES = (
    "affine",
    "projective",
    "elliptic-quadric",
    "hyperbolic-quadric",
    "cone",
    "two-hyperplanes",
    "coordinate-hyperplanes",
    "two-plane-complement",
)
EXAMPLES = tuple((name, 2) for name in GF2_EXAMPLES) + (
    ("elliptic-quadric", 3),
    ("cone", 3),
    ("two-hyperplanes", 3),
    ("two-plane-complement", 3),
    ("elliptic-quadric", 4),
)


def example_key(name, q):
    return f"{name}@gf{q}"


def report_digest(report):
    return digest(report.as_dict(include_witnesses=True))


def setup(fg, seed, golden):
    jobs = list(EXAMPLES)
    random.Random(seed).shuffle(jobs)
    for q in sorted({q for _, q in jobs}):
        fg.gf.gf(q)
    return {"fg": fg, "jobs": jobs, "golden": golden[NAME]}


def inputs(state):
    return [example_key(name, q) for name, q in state["jobs"]]


def check(tally, key, got_digest, golden):
    """One verdict report against its reference; returns whether it held."""
    ok = golden.get(key) == got_digest
    tally.record(key, ok, detail="" if ok else "verdict report differs from golden")
    return ok


def run(state, meter, trace_dir=None):
    """One pass over the job list; each example's build and classification
    is timed on its own, and the reports are checked after the pass."""
    fg = state["fg"]
    rnd = Round()
    reports = []
    for name, q in state["jobs"]:
        # the previous example's geometries are garbage now; collecting it
        # (outside the timed span) keeps the peak memory independent of the
        # seeded order
        gc.collect()
        cache_clear(fg.projective.build_pg)
        meter.start()
        t0 = time.perf_counter()
        try:
            report = fg.classify.classify(fg.gallery.build_example(name, fg.gf.gf(q)))
        except Exception as exc:  # a crash is a counted failure, not an abort
            report = exc
        rnd.add_chunk([time.perf_counter() - t0], meter.scale())
        reports.append((example_key(name, q), report))
    for key, report in reports:
        if isinstance(report, Exception):
            rnd.tally.record(key, False, detail=f"raised {type(report).__name__}: {report}")
        else:
            check(rnd.tally, key, report_digest(report), state["golden"])
    return rnd
