"""Command-line surface: build example geometries, check axioms, classify,
quotient, reconstruct semilinear maps, and run the exhaustive oracle.

Every command prints a single JSON report to stdout.  Reports are
deterministic except for the elapsed_s field.  Exit codes: 0 success or
positive verdict, 1 negative verdict (witnesses in the report), 2 malformed
input or arguments, 3 constructor error, 4 cap exceeded.  A reader that
closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from collections import Counter

from . import linalg, serialize
from .errors import CapExceeded, FileFormatError, FingeoError, SizeLimit
from .geometry import CoordGeometry, TableGeometry, bits_of, check_geometry_axioms, quotient
from .projective import check_projective_axioms

# classify, gallery and reconstruct are imported by the commands that run
# them, so that the other commands never compile them

# gallery.EXAMPLE_NAMES, the choices of make-example --name, copied here so
# that parsing the arguments runs no gallery; a test pins the two equal
EXAMPLE_NAMES = (
    "affine", "projective", "elliptic-quadric", "hyperbolic-quadric", "cone", "two-hyperplanes",
    "coordinate-hyperplanes", "two-plane-complement", "subfield-complement",
)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(args, inputs, payload, t0):
    """Keep the command's JSON report for main to write."""
    rep = {
        "command": args.echo,
        "inputs": {name: _digest(p) for name, p in inputs.items()},
    }
    rep.update(payload)
    rep["elapsed_s"] = round(time.time() - t0, 6)
    args.report = serialize.dump_json(rep)


def _parse_ambient(text):
    s = text.strip().lower()
    if not (s.startswith("pg(") and s.endswith(")")):
        raise FileFormatError(f"bad ambient designator {text!r}")
    try:
        n, q = (int(x) for x in s[3:-1].split(","))
    except ValueError:
        raise FileFormatError(f"bad ambient designator {text!r}")
    return n, q


def cmd_make_example(args, t0):
    from .gallery import build_example

    K = serialize.field_from_name(args.field)
    try:
        X = build_example(args.name, K, args.dim)
    except FingeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    serialize.save_geometry(X, args.out)
    _report(args, {"out": args.out}, {"points": X.n_points, "name": args.name}, t0)
    return 0


def cmd_check(args, t0):
    G = serialize.load_geometry(args.geometry)
    if args.axioms == "g":
        rep = check_geometry_axioms(G)
        payload = {"axioms": "geometry", "report": rep.as_dict()}
        ok = rep.all_pass
    else:
        rep = check_projective_axioms(G)
        payload = {"axioms": "projective", "report": rep.as_dict()}
        ok = rep.is_projective
    if not args.witnesses:
        payload["report"]["witnesses"] = {
            k: "suppressed" for k in payload["report"]["witnesses"]
        }
    _report(args, {"geometry": args.geometry}, payload, t0)
    return 0 if ok else 1


def cmd_classify(args, t0):
    from .classify import ALL_PREDICATES, classify

    G = serialize.load_geometry(args.geometry)
    if not isinstance(G, CoordGeometry):
        raise FileFormatError("classification requires an embedded geometry")
    if args.ambient is not None:
        n, q = _parse_ambient(args.ambient)
        if (G.ncoords - 1, G.field.q) != (n, q):
            raise FileFormatError(
                f"ambient mismatch: file implies pg({G.ncoords - 1},{G.field.q})"
            )
    preds = None if args.predicate is None else args.predicate.split(",")
    if preds is not None:
        unknown = [p for p in preds if p not in ALL_PREDICATES]
        if unknown:
            raise FileFormatError(f"unknown predicates: {unknown}")
    report = classify(G, preds)
    payload = {"classification": report.as_dict(include_witnesses=args.witnesses)}
    ok = all(v.verdict is not False for v in report.verdicts.values())
    _report(args, {"geometry": args.geometry}, payload, t0)
    return 0 if ok else 1


def cmd_quotient(args, t0):
    G = serialize.load_geometry(args.geometry)
    try:
        points = [int(x) for x in args.flat.split(",")] if args.flat else []
    except ValueError:
        raise FileFormatError(f"bad flat point list {args.flat!r}")
    if any(not 0 <= x < G.n_points for x in points):
        raise FileFormatError(f"flat points {points} outside 0..{G.n_points - 1}")
    repeated = sorted(x for x, n in Counter(points).items() if n > 1)
    if repeated:
        raise FileFormatError(f"repeated flat points {repeated} in {points}")
    E = G.closure(points)
    if sorted(bits_of(E.mask)) != sorted(points):
        raise FileFormatError(f"points {points} are not a flat (closure adds points)")
    Q, pi = quotient(G, E)
    payload = {
        "classes": [sorted(bits_of(m)) for m in Q.classes],
        "quotient_points": Q.n_points,
        "quotient_dim": Q.dim(),
    }
    if args.out:
        serialize.save_geometry(TableGeometry(Q.n_points, Q.flats()), args.out)
    _report(args, {"geometry": args.geometry}, payload, t0)
    return 0


def _instance_from_files(args):
    G = serialize.load_geometry(args.geometry)
    if not isinstance(G, CoordGeometry):
        raise FileFormatError("reconstruction requires an embedded geometry")
    pairs, file_target = serialize.load_map_pairs(args.map)
    K = G.field
    K2 = file_target
    if args.target is not None:
        K2 = serialize.field_from_name(args.target)
    if K2 is None:
        K2 = K
    if not pairs:
        raise FileFormatError("map file has no pairs")
    m1 = len(pairs[0][1])
    images = {}
    for s, d in pairs:
        if len(d) != m1:
            raise FileFormatError("target coordinate rows are ragged")
        serialize.check_entries(s, K, "source point")
        serialize.check_entries(d, K2, "target point")
        sv = linalg.normalize_vec(K, s)
        dv = linalg.normalize_vec(K2, d)
        if sv is None or dv is None:
            raise FileFormatError(f"zero vector in pair {s} -> {d}")
        idx = G.point_index(sv)
        if idx is None:
            raise FileFormatError(f"source point {list(s)} is not in the geometry")
        if images.setdefault(idx, dv) != dv:
            raise FileFormatError(f"source point {list(s)} mapped twice inconsistently")
    return G, K2, m1 - 1, images


def _all_images(G, images):
    """The image of every point in point order; an unmapped point is an
    input error."""
    missing = [i for i in range(G.n_points) if i not in images]
    if missing:
        raise FileFormatError(f"map file leaves {len(missing)} points unmapped")
    return tuple(images[i] for i in range(G.n_points))


def cmd_reconstruct(args, t0):
    from .reconstruct import (
        MorphismInstance,
        PartialPointMap,
        ReconstructionResult,
        reconstruct_affino_projective,
        reconstruct_ftpg,
        reconstruct_locally_affino,
        reconstruct_locally_projective,
    )

    G, K2, target_dim, images = _instance_from_files(args)
    # input errors exit 2: they are checked before the try below turns every
    # library error into a negative verdict
    if args.kind == "pg":
        if not G.is_full_pg:
            raise FileFormatError("kind pg expects the full projective space")
    else:
        all_images = _all_images(G, images)
    try:
        if args.kind == "pg":
            point_map = tuple(images.get(i) for i in range(G.n_points))
            phi = reconstruct_ftpg(PartialPointMap(G, K2, target_dim, point_map))
            # the map is already canonical, so its scalar normalization is 1
            result = ReconstructionResult.of(phi, G, ())
        else:
            kind_name, driver = {
                "lp": ("locally-projective", reconstruct_locally_projective),
                "ap": ("affino-projective", reconstruct_affino_projective),
                "lap": ("locally-affino-projective", reconstruct_locally_affino),
            }[args.kind]
            result = driver(MorphismInstance(G, K2, target_dim, all_images, kind_name))
    except FingeoError as exc:
        if isinstance(exc, CapExceeded):
            raise
        payload = {"reconstruction": None, "failure": type(exc).__name__, "detail": str(exc)}
        _report(args, {"geometry": args.geometry, "map": args.map}, payload, t0)
        return 1
    out = serialize.result_to_dict(result)
    if args.out:
        serialize.dump_json(out, args.out)
    _report(args, {"geometry": args.geometry, "map": args.map}, {"reconstruction": out}, t0)
    return 0


def cmd_oracle(args, t0):
    from .reconstruct import MorphismInstance, brute_force_oracle

    if args.limit is not None and args.limit < 0:
        raise FileFormatError(f"bad candidate cap {args.limit} (must be >= 0)")
    G, K2, target_dim, images = _instance_from_files(args)
    inst = MorphismInstance(G, K2, target_dim, _all_images(G, images))
    maps = brute_force_oracle(inst, cap=1 << 24 if args.limit is None else args.limit)
    payload = {
        "matches": [serialize.semilinear_to_dict(phi) for phi in maps],
        "count": len(maps),
    }
    _report(args, {"geometry": args.geometry, "map": args.map}, payload, t0)
    return 0 if maps else 1


def build_parser():
    p = argparse.ArgumentParser(prog="fingeo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("make-example", help="construct a gallery geometry")
    sp.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    sp.add_argument("--field", required=True)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_make_example)

    sp = sub.add_parser("check", help="geometry or projective axioms")
    sp.add_argument("--axioms", choices=("g", "p"), required=True)
    sp.add_argument("--geometry", required=True)
    sp.add_argument("--witnesses", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("classify", help="classification predicates")
    sp.add_argument("--geometry", required=True)
    sp.add_argument("--ambient", default=None)
    sp.add_argument("--predicate", default=None)
    sp.add_argument("--witnesses", action="store_true")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("quotient", help="quotient by a flat")
    sp.add_argument("--geometry", required=True)
    sp.add_argument("--flat", default="")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_quotient)

    sp = sub.add_parser("reconstruct", help="recover the inducing semilinear map")
    sp.add_argument("--geometry", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--kind", choices=("pg", "lp", "ap", "lap"), required=True)
    sp.add_argument("--target", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("oracle", help="exhaustive semilinear map search")
    sp.add_argument("--geometry", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--target", default=None)
    sp.add_argument("--limit", type=int, default=None)
    sp.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.echo = ["fingeo"] + argv
    t0 = time.time()
    args.report = None
    try:
        code = args.fn(args, t0)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.report is not None:
            sys.stdout.write(args.report + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and keep the command's code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
