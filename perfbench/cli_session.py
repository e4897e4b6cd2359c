"""cli-session: the README's CLI session, one fresh child process per
command, run one at a time.

The session makes example geometries, checks geometry and projective
axioms (also on a quotient written as a table file, so the table backend
runs), classifies with predicate subsets, reconstructs maps of every kind
from map files drawn from the seed during set-up, runs the exhaustive
oracle under its cap, and feeds about one command in ten a malformed input
whose exit code must follow the README's table.  Two of those inputs are
known defects: an out-of-range field element (7 in gf(3)) in a map file,
and a map file that leaves points unmapped; both must exit 2.

Why: every command starts cold on small inputs, so interpreter and import
start-up, file parsing and writing, the table backend and the oracle make
up much of the time.  Work moved into import or set-up shows here even
when it helps classify-cold.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

from common import OUT, Round, digest, file_digest

NAME = "cli-session"
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")

# Map files written in set-up: name -> (gallery example, field, dim,
# target field, matrix columns).  A 4x3 matrix maps PG(2, q) into PG(3, q).
MAPS = {
    "ag33-lp.json": ("affine", 3, 3, 3, 4),
    "ag33-ap.json": ("affine", 3, 3, 3, 4),
    "eq33-lap.json": ("elliptic-quadric", 3, None, 3, 4),
    "cone33-lap.json": ("cone", 3, None, 3, 4),
    "th33-lp.json": ("two-hyperplanes", 3, 3, 3, 4),
    "pg33-pg.json": ("projective", 3, 3, 3, 4),
    "ag32-lp.json": ("affine", 2, 3, 4, 4),
    "pg23-oracle.json": ("projective", 3, 2, 3, 3),
    "pg32-oracle.json": ("projective", 2, 3, 2, 4),
}


def _example(name, field, out, dim=None):
    argv = ["make-example", "--name", name, "--field", field, "--out", out]
    return argv + (["--dim", str(dim)] if dim is not None else [])


# (label, argv, expectation).  Expectations: "file" (exit 0 and the output
# file's digest is golden), "report" (exit code and report are golden),
# "map" (exit 0 and the map is proportional to the file's generator),
# "oracle" (exit 0 and the generator is the single match), or an int: the
# exit code the README's table gives for a malformed input.
COMMANDS = (
    ("make pg32", _example("projective", "gf(2)", "pg32.json", 3), "file"),
    ("make pg33", _example("projective", "gf(3)", "pg33.json", 3), "file"),
    ("make pg23", _example("projective", "gf(3)", "pg23.json", 2), "file"),
    ("make ag32", _example("affine", "gf(2)", "ag32.json", 3), "file"),
    ("make ag33", _example("affine", "gf(3)", "ag33.json", 3), "file"),
    ("make eq33", _example("elliptic-quadric", "gf(3)", "eq33.json"), "file"),
    ("make cone33", _example("cone", "gf(3)", "cone33.json"), "file"),
    ("make th33", _example("two-hyperplanes", "gf(3)", "th33.json", 3), "file"),
    ("make hq33", _example("hyperbolic-quadric", "gf(3)", "hq33.json"), "file"),
    ("make eq17 (size limit)", _example("elliptic-quadric", "gf(17)", "eq17.json"), 3),
    ("check g pg32", ["check", "--axioms", "g", "--geometry", "pg32.json"], "report"),
    ("check p pg32", ["check", "--axioms", "p", "--geometry", "pg32.json"], "report"),
    ("check g eq33", ["check", "--axioms", "g", "--geometry", "eq33.json", "--witnesses"], "report"),
    ("check p ag32", ["check", "--axioms", "p", "--geometry", "ag32.json", "--witnesses"], "report"),
    ("quotient pg33", ["quotient", "--geometry", "pg33.json", "--flat", "0", "--out", "q33.json"], "report"),
    ("check p q33", ["check", "--axioms", "p", "--geometry", "q33.json"], "report"),
    ("check g q33", ["check", "--axioms", "g", "--geometry", "q33.json"], "report"),
    ("quotient eq33", ["quotient", "--geometry", "eq33.json", "--flat", "0", "--out", "qeq.json"], "report"),
    ("check p qeq", ["check", "--axioms", "p", "--geometry", "qeq.json", "--witnesses"], "report"),
    (
        "classify eq33",
        ["classify", "--geometry", "eq33.json", "--ambient", "pg(3,3)",
         "--predicate", "mobius,ovoid", "--witnesses"],
        "report",
    ),
    (
        "classify ag32",
        ["classify", "--geometry", "ag32.json",
         "--predicate", "locally_projective,line_condition,affino_projective"],
        "report",
    ),
    (
        "classify cone33",
        ["classify", "--geometry", "cone33.json",
         "--predicate", "locally_affino_projective,minimal_embedding", "--witnesses"],
        "report",
    ),
    (
        "classify th33",
        ["classify", "--geometry", "th33.json",
         "--predicate", "enough_points,locally_projective,lp_axioms"],
        "report",
    ),
    (
        "classify hq33",
        ["classify", "--geometry", "hq33.json", "--predicate", "mobius,enough_points", "--witnesses"],
        "report",
    ),
    (
        "reconstruct ag33 lp",
        ["reconstruct", "--geometry", "ag33.json", "--map", "ag33-lp.json", "--kind", "lp",
         "--out", "ag33-result.json"],
        "map",
    ),
    ("reconstruct ag33 ap", ["reconstruct", "--geometry", "ag33.json", "--map", "ag33-ap.json", "--kind", "ap"], "map"),
    ("reconstruct eq33 lap", ["reconstruct", "--geometry", "eq33.json", "--map", "eq33-lap.json", "--kind", "lap"], "map"),
    (
        "reconstruct cone33 lap",
        ["reconstruct", "--geometry", "cone33.json", "--map", "cone33-lap.json", "--kind", "lap"],
        "map",
    ),
    ("reconstruct th33 lp", ["reconstruct", "--geometry", "th33.json", "--map", "th33-lp.json", "--kind", "lp"], "map"),
    ("reconstruct pg33 pg", ["reconstruct", "--geometry", "pg33.json", "--map", "pg33-pg.json", "--kind", "pg"], "map"),
    ("reconstruct ag32 lp", ["reconstruct", "--geometry", "ag32.json", "--map", "ag32-lp.json", "--kind", "lp"], "map"),
    ("oracle pg23", ["oracle", "--geometry", "pg23.json", "--map", "pg23-oracle.json"], "oracle"),
    ("oracle pg32", ["oracle", "--geometry", "pg32.json", "--map", "pg32-oracle.json"], "oracle"),
    (
        "malformed: element 7 in gf(3)",
        ["reconstruct", "--geometry", "ag33.json", "--map", "bad-element.json", "--kind", "lp"],
        2,
    ),
    (
        "malformed: unmapped points",
        ["reconstruct", "--geometry", "ag33.json", "--map", "unmapped.json", "--kind", "lp"],
        2,
    ),
    ("malformed: not JSON", ["check", "--axioms", "g", "--geometry", "not-json.json"], 2),
    (
        "malformed: unknown predicate",
        ["classify", "--geometry", "eq33.json", "--predicate", "ovoid,no_such_predicate"],
        2,
    ),
)


def arg(argv, flag):
    """The value given to flag in a command line."""
    return argv[argv.index(flag) + 1]


def _random_map(fg, rng, K, K2, cols):
    homs = fg.gf.list_homomorphisms(K, K2)
    while True:
        M = tuple(tuple(rng.randrange(K2.q) for _ in range(cols)) for _ in range(4))
        if fg.linalg.rank(K2, M) == min(4, cols):
            return fg.projective.SemilinearMap(homs[rng.randrange(len(homs))], M)


def setup(fg, seed, golden):
    """Draw a generator per map file and write the map files, including the
    malformed ones, into a fresh work directory."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="cli-session-", dir=OUT)
    atexit.register(shutil.rmtree, work, True)
    rng = random.Random(seed)
    built = {}
    generators = {}
    pairs_of = {}
    for fname, (example, q, dim, q2, cols) in MAPS.items():
        key = (example, q, dim)
        if key not in built:
            built[key] = fg.gallery.build_example(example, fg.gf.gf(q), dim)
        X = built[key]
        K, K2 = fg.gf.gf(q), fg.gf.gf(q2)
        gen = _random_map(fg, rng, K, K2, cols)
        pairs = [(v, fg.linalg.normalize_vec(K2, gen.apply_vec(v))) for v in X.vectors]
        target = K2 if q2 != q else None
        fg.serialize.save_map_pairs(pairs, os.path.join(work, fname), target)
        generators[fname] = gen
        pairs_of[fname] = pairs
    # malformed: a leading target coordinate of 7, out of range in gf(3)
    pairs = [list(map(list, p)) for p in pairs_of["ag33-lp.json"]]
    _, dst = pairs[rng.randrange(len(pairs))]
    dst[next(i for i, c in enumerate(dst) if c)] = 7
    with open(os.path.join(work, "bad-element.json"), "w", encoding="utf-8") as fh:
        json.dump({"pairs": pairs}, fh)
    # malformed: three points left without an image
    pairs = list(pairs_of["ag33-lp.json"])
    for i in sorted(rng.sample(range(len(pairs)), 3), reverse=True):
        del pairs[i]
    fg.serialize.save_map_pairs(pairs, os.path.join(work, "unmapped.json"))
    with open(os.path.join(work, "not-json.json"), "w", encoding="utf-8") as fh:
        fh.write('{"field": "gf(3)", "ambient_dim": 3, "points": [[1, 0')
    return {"fg": fg, "work": work, "generators": generators, "golden": golden[NAME]}


def inputs(state):
    return {name: file_digest(os.path.join(state["work"], name)) for name in sorted(os.listdir(state["work"]))}


def _report(stdout):
    try:
        rep = json.loads(stdout)
    except ValueError:
        return None
    return rep if isinstance(rep, dict) else None


def report_digest(stdout):
    """Digest of a CLI report without its elapsed_s field, or None."""
    rep = _report(stdout)
    if rep is None:
        return None
    rep.pop("elapsed_s", None)
    return digest(rep)


def check(state, tally, label, argv, expect, code, stdout, stderr):
    """One command's outcome against its expectation; returns whether it held."""
    fg, golden = state["fg"], state["golden"]
    contract_ok = "Traceback" not in stderr
    detail = []
    if isinstance(expect, int):
        # a malformed input gets no answer, only the exit code the README gives
        answer_ok = code != 0
        contract_ok = contract_ok and code == expect
        if code != expect:
            detail.append(f"exit {code}, README says {expect}")
    elif expect == "file":
        answer_ok = _out_matches(state, argv)
        contract_ok = contract_ok and code == 0
    elif expect == "report":
        ref = golden["reports"][label]
        answer_ok = report_digest(stdout) == ref["digest"] and code == ref["exit"]
        if "--out" in argv:
            answer_ok = answer_ok and _out_matches(state, argv)
    else:
        gen = state["generators"][arg(argv, "--map")]
        rep = _report(stdout) or {}
        contract_ok = contract_ok and code == 0
        if expect == "map":
            got = rep.get("reconstruction")
            answer_ok = bool(got) and _proportional(fg, got, gen)
        else:
            want = fg.serialize.semilinear_to_dict(gen.canonical())
            answer_ok = rep.get("count") == 1 and rep.get("matches") == [want]
    if not answer_ok:
        detail.append("output differs from the reference")
    if "Traceback" in stderr:
        detail.append("traceback: " + stderr.strip().splitlines()[-1])
    tally.record(label, answer_ok, contract_ok, "; ".join(detail))
    return answer_ok and contract_ok


def _out_matches(state, argv):
    path = os.path.join(state["work"], arg(argv, "--out"))
    return os.path.exists(path) and file_digest(path) == state["golden"]["files"][arg(argv, "--out")]


def _proportional(fg, data, gen):
    try:
        phi = fg.serialize.semilinear_from_dict(data)
    except fg.errors.FileFormatError:
        return False
    return fg.projective.proportional(phi, gen) is not None


def execute(work, argv, trace_out="-"):
    """Run one CLI command in a fresh interpreter inside work and wait."""
    return subprocess.run(
        [sys.executable, SHIM, trace_out, *argv],
        cwd=work,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run(state, meter, trace_dir=None):
    """One session, each command timed from start to exit; the checks run
    after the session."""
    rnd = Round()
    outcomes = []
    spans_files = []
    meter.start()
    for i, (label, argv, _expect) in enumerate(COMMANDS):
        trace_out = "-"
        if trace_dir is not None:
            trace_out = os.path.join(trace_dir, f"cmd{i:02d}.json")
            spans_files.append(trace_out)
        if "--out" in argv:
            # a file left by the previous round must not pass for this one's
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(state["work"], arg(argv, "--out")))
        t0 = time.perf_counter()
        proc = execute(state["work"], argv, trace_out)
        rnd.add_chunk([time.perf_counter() - t0], meter.scale())
        outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    for (label, argv, expect), (code, stdout, stderr) in zip(COMMANDS, outcomes):
        check(state, rnd.tally, label, argv, expect, code, stdout, stderr)
    if trace_dir is not None:
        state["trace"] = _merge_traces(spans_files, rnd.seconds)
    return rnd


def _merge_traces(paths, child_walls):
    """Sum the children's span summaries and counters; process start is
    each child's wall time minus its time inside main."""
    summary, counters = {}, Counter()
    start_s = 0.0
    for path, wall in zip(paths, child_walls):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name, vals in data["spans"].items():
            acc = summary.get(name, (0, 0, 0))
            summary[name] = tuple(a + b for a, b in zip(acc, vals))
        counters.update(data["counters"])
        start_s += wall - data["main_s"]
    return summary, counters, start_s
