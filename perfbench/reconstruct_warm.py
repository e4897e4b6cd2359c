"""reconstruct-warm: a closed loop with one client over seeded random
full-rank semilinear maps, each restricted to one of nine prepared
geometry/driver targets and sent to the matching reconstruction driver.

Why: the geometries, their flats and point quotients are built and warmed
in set-up, so the timed loop spends its time in the reconstruction stages
and the small linear-algebra kernels, not in closures.  A change to the
closure kernel should not move this workload; it shows whether such a
change slows another layer.  Every result must be proportional to the
generator that produced its input; that is checked after the clock stops.
"""

from __future__ import annotations

import random
import time

from common import Round

NAME = "reconstruct-warm"
OPS = 1008  # 112 maps for each of the nine targets
CHUNK = 56  # maps timed between two host-speed samples (about 0.2 s)

# (label, gallery example, source field, target field, driver)
TARGETS = (
    ("ag(3,2)->gf(4)", "affine", 2, 4, "lp"),
    ("ag(3,3)", "affine", 3, 3, "lp"),
    ("ag(3,3)/ap", "affine", 3, 3, "ap"),
    ("two-hyperplanes(3,3)", "two-hyperplanes", 3, 3, "lp"),
    ("elliptic(3,4)", "elliptic-quadric", 4, 4, "lap"),
    ("hyperbolic(3,4)", "hyperbolic-quadric", 4, 4, "lap"),
    ("cone(3,4)", "cone", 4, 4, "lap"),
    ("elliptic(3,3)", "elliptic-quadric", 3, 3, "lap"),
    ("pg(3,3)", "projective", 3, 3, "ftpg"),
)
KINDS = {"lp": "locally-projective", "ap": "affino-projective", "lap": "locally-affino-projective"}


def random_map(fg, rng, K, K2):
    """A uniformly drawn full-rank 4x4 semilinear map K^4 -> K2^4 over a
    uniformly drawn field homomorphism (Frobenius twists included)."""
    homs = fg.gf.list_homomorphisms(K, K2)
    while True:
        M = tuple(tuple(rng.randrange(K2.q) for _ in range(4)) for _ in range(4))
        if fg.linalg.rank(K2, M) == 4:
            return fg.projective.SemilinearMap(homs[rng.randrange(len(homs))], M)


def make_input(fg, X, K2, driver, gen):
    if driver == "ftpg":
        images = tuple(fg.linalg.normalize_vec(K2, gen.apply_vec(v)) for v in X.vectors)
        return fg.reconstruct.PartialPointMap(X, K2, 3, images)
    return fg.reconstruct.MorphismInstance.restrict_semilinear(gen, X, kind=KINDS[driver])


def drivers(fg):
    r = fg.reconstruct
    return {
        "lp": lambda inst: r.reconstruct_locally_projective(inst).phi,
        "ap": lambda inst: r.reconstruct_affino_projective(inst).phi,
        "lap": lambda inst: r.reconstruct_locally_affino(inst).phi,
        "ftpg": r.reconstruct_ftpg,
    }


def setup(fg, seed, golden):
    """Build the geometries, draw the maps, and reconstruct once per target."""
    rng = random.Random(seed)
    built = {}
    targets = []
    for label, example, q, q2, driver in TARGETS:
        key = (example, q)
        if key not in built:
            built[key] = fg.gallery.build_example(example, fg.gf.gf(q))
        targets.append((label, built[key], fg.gf.gf(q), fg.gf.gf(q2), driver))
    plan = [t for t in targets for _ in range(OPS // len(targets))]
    rng.shuffle(plan)
    jobs = []
    for label, X, K, K2, driver in plan:
        gen = random_map(fg, rng, K, K2)
        jobs.append((label, driver, gen, make_input(fg, X, K2, driver, gen)))
    run_driver = drivers(fg)
    for label, X, K, K2, driver in targets:
        gen = random_map(fg, rng, K, K2)
        run_driver[driver](make_input(fg, X, K2, driver, gen))
    return {"fg": fg, "jobs": jobs}


def inputs(state):
    return [
        (label, gen.sigma.table, gen.matrix) for label, _driver, gen, _inst in state["jobs"]
    ]


def check(fg, tally, label, phi, gen):
    """A reconstructed map is right only when it is proportional to its
    generator; returns whether it was."""
    ok = fg.projective.proportional(phi, gen) is not None
    tally.record(label, ok, detail="" if ok else "map is not proportional to its generator")
    return ok


def run(state, meter, trace_dir=None):
    """One pass over the maps, timed per map and scaled per chunk of CHUNK
    maps; results are checked after the pass."""
    fg = state["fg"]
    run_driver = drivers(fg)
    rnd = Round()
    results = []
    jobs = state["jobs"]
    meter.start()
    for first in range(0, len(jobs), CHUNK):
        seconds = []
        for _label, driver, _gen, inst in jobs[first : first + CHUNK]:
            fn = run_driver[driver]
            t0 = time.perf_counter()
            try:
                phi = fn(inst)
            except Exception as exc:  # a crash is a counted failure, not an abort
                phi = exc
            seconds.append(time.perf_counter() - t0)
            results.append(phi)
        rnd.add_chunk(seconds, meter.scale())
    for (label, _driver, gen, _inst), phi in zip(jobs, results):
        if isinstance(phi, Exception):
            rnd.tally.record(label, False, detail=f"raised {type(phi).__name__}: {phi}")
        else:
            check(fg, rnd.tally, label, phi, gen)
    return rnd
