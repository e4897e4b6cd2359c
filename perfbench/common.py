"""Helpers shared by the benchmark's workloads: loading fingeo from the
checkout, counting operations, digests and percentiles."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAYERS = ("gf", "linalg", "geometry", "projective", "classify", "gallery", "reconstruct", "serialize", "cli")
# latency recorded for an operation whose answer is wrong or missing: it
# misses every limit
FAILED_MS = 1e9


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def fresh_import():
    """Import fingeo from the checkout's src/ with every module-level cache
    empty, dropping any copy imported before; returns ``layers()``."""
    if not os.path.isfile(os.path.join(SRC, "fingeo", "__init__.py")):
        raise SetupError(f"no fingeo sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "fingeo" or m.startswith("fingeo.")]:
        del sys.modules[name]
    package = importlib.import_module("fingeo")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "fingeo"):
        raise SetupError(f"fingeo imported from {package.__file__}, not from {SRC}")
    return layers()


def layers():
    """A namespace holding the nine layer modules of fingeo and ``errors``
    (the package itself rebinds some module names, such as ``gf``)."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"fingeo.{name}") for name in LAYERS + ("errors",)}
    )


def cache_clear(fn):
    """cache_clear of an lru_cache function, also through tracing wrappers."""
    while not hasattr(fn, "cache_clear"):
        fn = fn.__wrapped__
    fn.cache_clear()


class Tally:
    """Operations attempted and failed in one pass.  An operation fails when
    any check on it fails; it is wrong when its answer (verdict, map, file
    or report) differs from the reference, which is the narrower case."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.answers = []  # per operation, in order: was its answer right

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures += other.failures
        self.answers += other.answers

    def record(self, label, answer_ok, contract_ok=True, detail=""):
        self.attempted += 1
        self.answers.append(answer_ok)
        if not answer_ok:
            self.wrong += 1
        if not (answer_ok and contract_ok):
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)


class Round:
    """One pass over a workload's job list: each operation's measured
    seconds, the factor that scales it to the reference host speed (see
    hostspeed), and the checks of its outputs."""

    def __init__(self):
        self.seconds = []
        self.factors = []
        self.tally = Tally()

    def add_chunk(self, seconds, factor):
        """Times of consecutive operations that one kernel bracket covers."""
        self.seconds += seconds
        self.factors += [factor] * len(seconds)

    def wall(self, scaled=True):
        """The round's time: the sum of its operations' times."""
        if not scaled:
            return sum(self.seconds)
        return sum(s * f for s, f in zip(self.seconds, self.factors))

    def latencies_ms(self, scaled=True):
        """Each operation's latency; one whose answer was wrong or missing
        gets FAILED_MS.  A malformed input that gets the wrong exit code
        keeps its latency: it has no answer to be late with."""
        factors = self.factors if scaled else [1.0] * len(self.seconds)
        return [
            s * f * 1e3 if ok else FAILED_MS
            for s, f, ok in zip(self.seconds, factors, self.tally.answers)
        ]


def digest(obj):
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]
