"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the fingeo layers from the
outside: nothing in the library changes.  Every wrapped call records one
span (name, start, end, parent) in flat arrays kept in memory; counters are
kept beside them.  ``summary()`` turns the spans into per-name call counts
and self times (a span's duration minus the time of its child spans), and
``write()`` stores the raw spans when the run ends.

Functions are rebound in every loaded ``fingeo.*`` module that holds them,
because ``classify``, ``reconstruct``, ``gallery`` and ``cli`` import by
name.  Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array
from collections import Counter

LINALG = (
    "in_span",
    "rref",
    "rref_extend",
    "span_points",
    "solve",
    "kernel_basis",
    "intersect_spans",
    "normalize_vec",
)
PROJECTIVE = ("build_pg", "check_projective_axioms", "quotient_coords")
RECONSTRUCT = (
    "reconstruct_locally_projective",
    "reconstruct_locally_affino",
    "reconstruct_affino_projective",
    "reconstruct_ftpg",
    "extend_affino",
    "normalize_pair",
    "glue_fibred_product",
    "brute_force_oracle",
)
DRIVERS = RECONSTRUCT[:3]
SERIALIZE = ("load_geometry", "load_map_pairs", "save_geometry", "dump_json")
# classify.ALL_PREDICATES name -> the function computing it
PREDICATES = {
    "enough_points": "has_enough_points",
    "locally_projective": "is_locally_projective",
    "line_condition": "check_line_condition",
    "lp_axioms": "check_lp_axioms",
    "bundle_theorem": "check_bundle_theorem",
    "affino_projective": "is_affino_projective",
    "locally_affino_projective": "is_locally_affino_projective",
    "mobius": "is_mobius",
    "ovoid": "is_ovoid",
    "minimal_embedding": "check_minimal_embedding",
}
CLI_COMMANDS = ("make_example", "check", "classify", "quotient", "reconstruct", "oracle")
BACKENDS = ("pg", "sub", "quotient", "table")

_now = time.perf_counter_ns


class Tracer:
    """Spans in four parallel arrays plus named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.counters = Counter()

    def name_id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def spanned(self, name, fn):
        """fn wrapped so that every call records a span called name."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(_now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _now()
                stack.pop()

        return wrapper

    def summary(self):
        """{name: (calls, self_ns, total_ns)} over every recorded span."""
        if self.stack:
            raise RuntimeError("summary() called with spans still open")
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, self_ns, total_ns = [0] * k, [0] * k, [0] * k
        for i, nid in enumerate(self.span_name):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            total_ns[nid] += dur
        return {
            name: (calls[i], self_ns[i], total_ns[i])
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path):
        """Raw spans, gzip-compressed: a line with the tab-separated name
        table, a line with the span count and byte order, then four arrays
        (uint16 name id, int32 parent span or -1, int64 start and end in ns
        of perf_counter) one after another."""
        with gzip.open(path, "wb", compresslevel=1) as fh:
            header = "\t".join(self.names) + f"\n{len(self.span_name)} {sys.byteorder}\n"
            fh.write(header.encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _rebind(original, replacement):
    """Point every fingeo module attribute holding original at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fingeo" or mod_name.startswith("fingeo.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_function(tracer, module, attr, name, after=None):
    """Rebind module.attr to a wrapper that records a span called name (no
    span when name is None) and then calls after(result, args)."""
    original = getattr(module, attr)
    wrapped = original if name is None else tracer.spanned(name, original)
    if after is not None:
        inner = wrapped

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            after(result, args)
            return result

    _rebind(original, wrapped)


def _backend(G, geometry):
    if isinstance(G, geometry.CoordGeometry):
        return "pg" if G.is_full_pg else "sub"
    if isinstance(G, geometry.QuotientGeometry):
        return "quotient"
    return "table"


def install(tracer):
    """Wrap the layer boundaries of the imported fingeo for good."""
    m = sys.modules
    classify, cli, gallery = m["fingeo.classify"], m["fingeo.cli"], m["fingeo.gallery"]
    geometry, gf, linalg = m["fingeo.geometry"], m["fingeo.gf"], m["fingeo.linalg"]
    projective, reconstruct, serialize = m["fingeo.projective"], m["fingeo.reconstruct"], m["fingeo.serialize"]

    counters = tracer.counters
    fn = functools.partial(_wrap_function, tracer)

    for attr in LINALG:
        fn(linalg, attr, f"linalg.{attr}")
    for attr in PROJECTIVE:
        fn(projective, attr, f"projective.{attr}")
    fn(geometry, "check_geometry_axioms", "geometry.check_geometry_axioms")
    for pred, attr in PREDICATES.items():
        fn(classify, attr, f"classify.{pred}")

    def count_sampled(report, _args):
        counters["classify.sampled_verdicts"] += sum(
            v.method == "sampled" for v in report.verdicts.values()
        )

    # classify() itself is not a span; it only feeds the sampled-verdict count
    fn(classify, "classify", None, count_sampled)

    fn(gallery, "build_example", "gallery.build_example")

    def count_verified(result, _args):
        counters["reconstruct.verified_points"] += result.certificate["verified_points"]

    for attr in RECONSTRUCT:
        fn(reconstruct, attr, f"reconstruct.{attr}", count_verified if attr in DRIVERS else None)

    def count_read(_result, args):
        counters["serialize.bytes_read"] += os.path.getsize(args[0])

    def count_written(text, args):
        path = args[1] if len(args) > 1 else None
        if path:
            counters["serialize.bytes_written"] += len(text.encode()) + 1

    fn(serialize, "load_geometry", "serialize.load_geometry", count_read)
    fn(serialize, "load_map_pairs", "serialize.load_map_pairs", count_read)
    fn(serialize, "save_geometry", "serialize.save_geometry")
    fn(serialize, "dump_json", "serialize.dump_json", count_written)
    for cmd in CLI_COMMANDS:
        fn(cli, f"cmd_{cmd}", f"cli.{cmd}")

    fn(gf, "list_homomorphisms", "gf")
    for attr in ("map_vec", "map_matrix", "preserves_structure"):
        setattr(gf.FieldHom, attr, tracer.spanned("gf", vars(gf.FieldHom)[attr]))

    # closure_mask: one span name per backend, chosen from the receiver
    closure_mask = vars(geometry.FiniteGeometry)["closure_mask"]
    by_backend = {b: tracer.spanned(f"geometry.closure_mask.{b}", closure_mask) for b in BACKENDS}

    def traced_closure_mask(self, mask):
        return by_backend[_backend(self, geometry)](self, mask)

    geometry.FiniteGeometry.closure_mask = traced_closure_mask

    # flats and point quotients are cached per geometry: only cold calls
    # (the ones that build) record a span
    flats = vars(geometry.FiniteGeometry)["flats"]
    flats_cold = tracer.spanned("geometry.flats", flats)

    def traced_flats(self):
        if self._flats is not None:
            return flats(self)
        out = flats_cold(self)
        counters["geometry.flats.count"] += len(out)
        return out

    geometry.FiniteGeometry.flats = traced_flats

    point_quotient = vars(geometry.FiniteGeometry)["point_quotient"]
    point_quotient_cold = tracer.spanned("geometry.point_quotient", point_quotient)

    def traced_point_quotient(self, x):
        if x in self._point_quotients:
            return point_quotient(self, x)
        return point_quotient_cold(self, x)

    geometry.FiniteGeometry.point_quotient = traced_point_quotient


def per_layer(summary, counters, process_start_s=0.0):
    """The benchmark's per-layer metrics from a tracer summary; every name
    is present, with zero where the layer did not run."""
    out = {}

    def spans(prefix, name):
        calls, self_ns, _ = summary.get(name, (0, 0, 0))
        out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.self_s"] = (self_ns / 1e9, "s")

    for attr in LINALG:
        spans(f"linalg.{attr}", f"linalg.{attr}")
    for b in BACKENDS:
        spans(f"geometry.closure_mask.{b}", f"geometry.closure_mask.{b}")
    calls, _, total = summary.get("geometry.flats", (0, 0, 0))
    out["geometry.flats.cold_calls"] = (calls, "count")
    out["geometry.flats.count"] = (counters["geometry.flats.count"], "count")
    out["geometry.flats.build_s"] = (total / 1e9, "s")
    calls, _, total = summary.get("geometry.point_quotient", (0, 0, 0))
    out["geometry.point_quotient.cold_calls"] = (calls, "count")
    out["geometry.point_quotient.build_s"] = (total / 1e9, "s")
    spans("geometry.check_geometry_axioms", "geometry.check_geometry_axioms")
    for attr in PROJECTIVE:
        spans(f"projective.{attr}", f"projective.{attr}")
    for pred in PREDICATES:
        spans(f"classify.{pred}", f"classify.{pred}")
    out["classify.sampled_verdicts"] = (counters["classify.sampled_verdicts"], "count")
    spans("gallery.build_example", "gallery.build_example")
    for attr in RECONSTRUCT:
        spans(f"reconstruct.{attr}", f"reconstruct.{attr}")
    out["reconstruct.verified_points"] = (counters["reconstruct.verified_points"], "count")
    for attr in SERIALIZE:
        spans(f"serialize.{attr}", f"serialize.{attr}")
    out["serialize.bytes_read"] = (counters["serialize.bytes_read"], "byte")
    out["serialize.bytes_written"] = (counters["serialize.bytes_written"], "byte")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = (summary.get(f"cli.{cmd}", (0, 0, 0))[1] / 1e9, "s")
    out["cli.process_start_s"] = (process_start_s, "s")
    spans("gf", "gf")
    return out
