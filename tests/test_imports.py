"""What a fresh process imports: the package alone, and each CLI command.

`import wplarcs` loads no layer module, and a command loads only the layers
it runs and neither `dataclasses` nor `inspect`, so a one-shot `wplarcs`
process compiles no more than it needs.
Each check runs in a new interpreter, since this one has every layer loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("core", "intersect", "homext", "exceptional", "braid", "tilting")

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "wplarcs")))
"""


def _fresh(code: str):
    """The JSON document a new interpreter prints after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules(*names):
    return sorted({"wplarcs", "wplarcs.errors"} | {f"wplarcs.{n}" for n in names})


def test_import_loads_no_layer():
    assert _fresh("import wplarcs" + LOADED) == ["wplarcs"]


CURVE = '{"kind":"bridging","i":0,"j":0}'
LINE = '{"kind":"line","x":[0,0,0]}'
FAN = json.dumps(
    [
        {"kind": "bridging", "i": 0, "j": 0},
        {"kind": "bridging", "i": 1, "j": 0},
        {"kind": "bridging", "i": 2, "j": 2},
        {"kind": "bridging", "i": 2, "j": 1},
        {"kind": "bridging", "i": 2, "j": 0},
    ]
)


COMMANDS = [
    (["phi", "--curve", CURVE], ("core",)),
    (["hom", "--from", LINE, "--to", LINE], ("core", "intersect", "homext")),
    (
        ["complete", "--collection", f"[{CURVE}]"],
        ("core", "intersect", "exceptional"),
    ),
    (["normalize", "--collection", FAN], ("core", "intersect", "exceptional", "braid")),
    (["census"], ("core", "intersect", "tilting")),
]


def _command(argv) -> str:
    """Code that runs one command of the CLI in-process, quietly."""
    return f"""
import contextlib, io
from wplarcs import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({["--p", "2", "--q", "3", "--json", *argv]!r}) == 0
"""


IDS = [argv[0] for argv, _ in COMMANDS]


@pytest.mark.parametrize("argv, layers", COMMANDS, ids=IDS)
def test_command_loads_only_its_layers(argv, layers):
    assert _fresh(_command(argv) + LOADED) == _modules("cli", *layers)


ALL_LOADED = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=IDS)
def test_command_loads_neither_dataclasses_nor_inspect(argv):
    # The value classes are slotted classes, not dataclasses: importing
    # `dataclasses` (and the `inspect` it pulls in) was a third of the
    # cost a one-shot process added over the interpreter.
    added = set(_fresh(_command(argv) + ALL_LOADED)) - set(_fresh(ALL_LOADED))
    assert "wplarcs.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


def test_names_resolve_to_their_home_objects_without_caching():
    code = f"""
import importlib, json, wplarcs
before = set(vars(wplarcs))
layers = [importlib.import_module("wplarcs." + n) for n in {LAYERS!r}]
from wplarcs import *
from wplarcs import braid, Surface
wrong = []
for name in wplarcs.__all__:
    value = getattr(wplarcs, name)
    homes = [m for m in layers if name in vars(m)]
    if not homes or any(vars(m)[name] is not value for m in homes):
        wrong.append(name)
try:
    wplarcs.no_such_name
    wrong.append("no_such_name")
except AttributeError:
    pass
print(json.dumps({{
    "wrong": wrong,
    "star": sorted(n for n in wplarcs.__all__ if n not in globals()),
    "braid": braid is layers[4] is wplarcs.braid,
    "cached": sorted(set(vars(wplarcs)) & set(wplarcs.__all__)),
    "added": sorted(set(vars(wplarcs)) - before - set({LAYERS!r}) - {{"errors"}}),
    "dir": sorted(set(wplarcs.__all__) - set(dir(wplarcs))),
}}))
"""
    assert _fresh(code) == {
        "wrong": [],
        "star": [],
        "braid": True,
        "cached": [],
        "added": [],
        "dir": [],
    }


# Helpers only the tests call; they live in `tests/` (the class vectors in
# `algebra_oracle`, the witnesses in `test_intersect`), and the Serre-dual
# curve is no longer built on the Hom route.
MOVED_OUT = (
    "positive_crossings",
    "sheaf_class_vector",
    "class_additivity_holds",
    "phi_inv_se_shifted",
)


def test_test_only_helpers_are_not_in_the_package():
    code = f"""
import importlib, json, wplarcs
layers = [importlib.import_module("wplarcs." + n) for n in {LAYERS!r}]
print(json.dumps(sorted(
    n for n in {MOVED_OUT!r}
    if n in wplarcs.__all__ or any(hasattr(m, n) for m in layers)
)))
"""
    assert _fresh(code) == []
