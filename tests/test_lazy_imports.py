"""What each command loads: the package imports gf, geometry and projective
eagerly and registers every other layer in sys.modules to be run on first
use, so that a CLI command compiles only the modules it runs; only
make-example runs the gallery, and no command imports dataclasses.  The
package's names keep resolving as before.
"""

import importlib
import json
import subprocess
import sys

import pytest

import fingeo
from fingeo.projective import build_pg
from fingeo.serialize import save_geometry, save_map_pairs

# the reconstruct names the package re-exports, and the layers it registers
# without running them
RECONSTRUCT_NAMES = (
    "MorphismInstance", "ReconstructionResult", "brute_force_oracle", "certify_side_conditions",
    "extend_affino", "glue_fibred_product", "induced_quotient_map", "normalize_pair",
    "reconstruct_affino_projective", "reconstruct_ftpg", "reconstruct_locally_affino",
    "reconstruct_locally_projective",
)
MODULES = ("classify", "gallery", "reconstruct", "serialize")

# runs one command in a fresh interpreter; the last line of stdout lists
# the fingeo modules in sys.modules when main returned, those of them that
# have run (a registered module that nothing touched is still an importlib
# LazyLoader stand-in, not a plain module), and whether dataclasses was
# imported
CHILD = (
    "import json, sys, types\n"
    "from fingeo.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "mods = {m: v for m, v in sys.modules.items() if m.split('.')[0] == 'fingeo'}\n"
    "ran = [m for m, v in mods.items() if type(v) is types.ModuleType]\n"
    "print(json.dumps([sorted(mods), sorted(ran), 'dataclasses' in sys.modules]))\n"
    "sys.exit(code)\n"
)
LAYERS = {
    "fingeo", "fingeo.classify", "fingeo.cli", "fingeo.errors", "fingeo.gallery",
    "fingeo.geometry", "fingeo.gf", "fingeo.linalg", "fingeo.projective", "fingeo.reconstruct",
    "fingeo.serialize",
}
BASE = LAYERS - {"fingeo.classify", "fingeo.gallery", "fingeo.reconstruct"}


@pytest.mark.parametrize("name", RECONSTRUCT_NAMES)
def test_reexported_name_resolves_to_its_definition(name):
    assert getattr(fingeo, name) is getattr(importlib.import_module("fingeo.reconstruct"), name)
    assert name in dir(fingeo)


@pytest.mark.parametrize("name", MODULES)
def test_deferred_module_resolves(name):
    assert getattr(fingeo, name) is importlib.import_module(f"fingeo.{name}")


def test_gf_stays_the_constructor():
    module = importlib.import_module("fingeo.gf")
    assert fingeo.gf is module.gf
    assert fingeo.gf(4).q == 4


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fingeo.no_such_name
    assert not hasattr(fingeo, "certified_bundles")


def test_each_command_loads_only_what_it_runs(tmp_path):
    P = build_pg(2, 2)
    geo, idmap, out = (str(tmp_path / f) for f in ("pg.json", "id.json", "out.json"))
    save_geometry(P, geo)
    save_map_pairs([(v, v) for v in P.vectors], idmap)
    commands = {
        "check": (["check", "--axioms", "g", "--geometry", geo], BASE),
        "quotient": (["quotient", "--geometry", geo, "--flat", "0"], BASE),
        "make-example": (
            ["make-example", "--name", "projective", "--field", "gf(2)", "--out", out],
            BASE | {"fingeo.gallery"},
        ),
        "make-example quadric": (
            ["make-example", "--name", "elliptic-quadric", "--field", "gf(2)", "--out", out + "q"],
            BASE | {"fingeo.gallery"},
        ),
        "classify": (["classify", "--geometry", geo], BASE | {"fingeo.classify"}),
        "reconstruct": (
            ["reconstruct", "--geometry", geo, "--map", idmap, "--kind", "pg"],
            LAYERS - {"fingeo.gallery"},
        ),
        "oracle": (["oracle", "--geometry", geo, "--map", idmap], LAYERS - {"fingeo.gallery"}),
    }
    # fresh interpreters, run side by side
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name, (argv, _) in commands.items()
    }
    registered, ran, dataclasses = {}, {}, {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, stderr)
        mods, done, dataclasses[name] = json.loads(stdout.splitlines()[-1])
        registered[name], ran[name] = set(mods), set(done)
    # every layer is in sys.modules, for tools that wrap the layers from the
    # outside, but only the ones the command runs have been compiled
    assert registered == {name: LAYERS for name in commands}
    assert ran == {name: want for name, (_, want) in commands.items()}
    assert dataclasses == {name: False for name in commands}
