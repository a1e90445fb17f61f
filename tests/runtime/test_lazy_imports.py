"""A replica process imports only what it runs.

``repro``, ``repro.runtime`` and ``repro.fuzz`` re-export their public names
lazily (PEP 562), so ``python -m repro.runtime`` and a process cluster's
template — whose heap every replica it forks inherits, and which
``peak_rss_mb`` counts once per replica — do not pay for the experiment
runner, the metrics stack or the workload generators at start-up, and
``python -m repro.fuzz.sweep`` does not find its own module imported by its
package before it runs.
"""

import asyncio
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime.proc import ProcessCluster

#: Subsystems a replica never runs.
NOT_A_REPLICA = ("repro.experiments", "repro.metrics", "repro.workload")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return env


def test_a_replica_loads_none_of_the_other_subsystems():
    script = (
        "import json, sys\n"
        "import repro.runtime.proc\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "repro.runtime.proc" in loaded
    assert [m for m in loaded if m.startswith(NOT_A_REPLICA)] == []


def _imported(stderr):
    """Module names in ``-X importtime`` output, in import order."""
    return [
        line.rpartition("|")[2].strip() for line in stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    ]


def test_the_template_loads_exactly_what_the_module_loads(tmp_path, monkeypatch, capfd):
    # The template writes its import profile to its stderr, the supervisor's.
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")

    async def scenario():
        async with ProcessCluster(groups=1, replication=1, storage_root=str(tmp_path)):
            pass

    asyncio.run(scenario())
    template = _imported(capfd.readouterr().err)
    done = subprocess.run(
        [sys.executable, "-c", "import repro.runtime.proc"], env=_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert "repro.runtime.proc" in template
    assert sorted(template) == sorted(_imported(done.stderr))
    assert [m for m in template if m.startswith(NOT_A_REPLICA)] == []


def test_the_sweep_module_runs_without_a_runtime_warning():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.fuzz.sweep",
         "--help"],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", ["repro", "repro.runtime", "repro.fuzz"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro.runtime import *", namespace)
    assert {"ProcessCluster", "ReplicaServer", "encode_frame"} <= set(namespace)
