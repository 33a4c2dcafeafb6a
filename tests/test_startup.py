"""Start-up: what ``import telecrit`` and each CLI subcommand load, and the
package surface that the deferred modules must keep.

``teleport`` and ``angles`` load on first use, so which modules a process
holds is only visible in a fresh interpreter; those checks run one.
"""

import json
import os
import subprocess
import sys

import pytest

import telecrit
from telecrit import angles, entanglement, states, teleport

EAGER = ["telecrit", "telecrit.entanglement", "telecrit.states"]
WITH_TELEPORT = sorted([*EAGER, "telecrit.cli", "telecrit.teleport"])
WITH_ALL = sorted([*WITH_TELEPORT, "telecrit.angles"])

SETTING = [
    "--state", "brown", "--alice", "1,2", "--bob", "3,4", "--charlie", "5", "--theta", "pi/4"
]


def _fresh(body: str, *argv: str) -> dict:
    """Run ``body`` in a fresh interpreter that imports this ``telecrit``;
    return the names it leaves in ``result`` and the telecrit modules it
    loaded."""
    script = (
        "import json, sys\n"
        "result = {}\n"
        f"{body}\n"
        "result['modules'] = sorted(m for m in sys.modules if m.startswith('telecrit'))\n"
        "print(json.dumps(result))\n"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(telecrit.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def _cli_modules(*argv: str) -> list[str]:
    body = (
        "import contextlib, io\n"
        "from telecrit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    result['status'] = main(sys.argv[1:])\n"
    )
    result = _fresh(body, *argv)
    assert result["status"] in (0, 1)
    return result["modules"]


def test_import_loads_states_and_entanglement_only():
    # dir() lists the deferred names without loading them
    body = (
        "import telecrit\n"
        "listed = set(dir(telecrit))\n"
        "result['unlisted'] = sorted({*telecrit.__all__, 'teleport', 'angles'} - listed)\n"
    )
    assert _fresh(body) == {"unlisted": [], "modules": EAGER}


def test_purity_loads_neither_deferred_module():
    assert _cli_modules("purity", "--state", "brown") == sorted([*EAGER, "telecrit.cli"])


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", *SETTING],
        ["teleport", *SETTING, "--input", "random"],
        ["eq5check", *SETTING],
    ],
    ids=lambda argv: argv[0],
)
def test_setting_commands_load_teleport_not_angles(argv):
    assert _cli_modules(*argv) == WITH_TELEPORT


def test_scan_loads_both_deferred_modules():
    assert _cli_modules("scan", "--state", "ghz5") == WITH_ALL


def test_first_use_binds_that_module_names_only():
    body = (
        "import telecrit\n"
        "fn = telecrit.criterion_check\n"
        "result['same'] = fn is sys.modules['telecrit.teleport'].criterion_check\n"
        "result['bound'] = sorted(n for n in telecrit.__all__ if n in vars(telecrit))\n"
    )
    result = _fresh(body)
    assert result["same"]
    assert result["modules"] == sorted([*EAGER, "telecrit.teleport"])
    assert result["bound"] == sorted(
        ["__version__", *states.__all__, *entanglement.__all__, *teleport.__all__]
    )


def test_star_import_in_fresh_interpreter_binds_every_name():
    body = (
        "namespace = {}\n"
        "exec('from telecrit import *', namespace)\n"
        "import telecrit\n"
        "result['missing'] = [n for n in telecrit.__all__ if n not in namespace]\n"
        "result['other'] = [n for n in telecrit.__all__\n"
        "                   if namespace.get(n) is not getattr(telecrit, n)]\n"
    )
    assert _fresh(body) == {
        "missing": [],
        "other": [],
        "modules": sorted([*EAGER, "telecrit.teleport", "telecrit.angles"]),
    }


def test_all_is_todays_names_in_todays_order():
    assert telecrit.__all__ == [
        "__version__",
        *states.__all__,
        *entanglement.__all__,
        *teleport.__all__,
        *angles.__all__,
    ]


def test_each_name_is_the_submodule_object():
    for module in (states, entanglement, teleport, angles):
        for name in module.__all__:
            assert getattr(telecrit, name) is getattr(module, name), name


def test_dir_lists_every_name_and_submodule():
    listed = dir(telecrit)
    assert set(telecrit.__all__) <= set(listed)
    assert {"states", "entanglement", "teleport", "angles"} <= set(listed)
    assert telecrit.teleport is teleport
    assert telecrit.angles is angles


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        telecrit.nope
    assert not hasattr(telecrit, "nope")
