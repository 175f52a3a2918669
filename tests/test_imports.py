"""Which subcommands load scipy, each checked in a fresh interpreter.

scipy is most of isodiam's start-up time and memory, and only the kd-tree
(``regions.NeighborIndex``) uses it, importing it on first use.  The pytest
process has long loaded scipy, so every check runs in a subprocess of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isodiam
from isodiam.geometry import Ball, Space
from isodiam.regionio import save_region

SRC = str(Path(isodiam.__file__).resolve().parents[1])

# run in the subprocess: each argv in turn through cli.main, then the scipy
# modules loaded so far; the argv lists arrive as JSON in sys.argv[1]
PROBE = """
import contextlib, io, json, sys
import isodiam, isodiam.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = isodiam.cli.main(argv)
    loaded.append([rc] + scipy_modules())
print(json.dumps(loaded))
"""


def scipy_after(*argvs):
    """[scipy modules after the imports, then [rc, *scipy modules] after each argv]."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def cap_file(tmp_path):
    path = tmp_path / "cap.json"
    save_region(path, Space.sphere(2), Ball(np.array([0.0, 0.0, 1.0]), 0.6))
    return str(path)


def test_import_and_scipy_free_subcommands_load_no_scipy(cap_file):
    loaded = scipy_after(
        ["volume", "--space", "sphere", "--dim", "2", "--radius", "0.5"],
        ["volume", "--space", "sphere", "--dim", "2", "--region", cap_file,
         "--samples", "1000", "--seed", "1"],
        ["diameter", "--region", cap_file, "--density", "300", "--seed", "3"],
        ["verify", "--space", "sphere", "--dim", "2", "--D", "1.0", "--trials", "3",
         "--seed", "1", "--density", "300"],
        ["verify", "--space", "hyperbolic", "--dim", "3", "--D", "1.0", "--trials", "2",
         "--seed", "1", "--samples", "2000", "--density", "300"],
        ["greedy", "--space", "sphere", "--dim", "2", "--D", "1.0", "--candidates", "300",
         "--seed", "1"],
        ["ball-probe", "--space", "sphere", "--dim", "2", "--radius", "0.5",
         "--trials", "200", "--seed", "1"],
        ["hemisphere", "--region", cap_file, "--density", "300", "--seed", "6"],
        ["hull-check", "--region", cap_file, "--density", "300", "--hull-samples", "200",
         "--seed", "8"],
    )
    assert loaded == [[]] + [[0]] * 9


def test_flow_loads_the_kd_tree_only(cap_file, tmp_path):
    rc, *loaded = scipy_after(
        ["flow", "--region", cap_file, "--steps", "1", "--seed", "1",
         "--out", str(tmp_path / "flow.csv"), "--density", "300",
         "--volume-samples", "2000"])[1]
    assert rc == 0
    assert "scipy.spatial" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)
