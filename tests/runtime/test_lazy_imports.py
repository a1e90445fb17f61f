"""A replica process imports only what it runs.

``repro`` and ``repro.runtime`` re-export their public names lazily (PEP
562), so ``python -m repro.runtime`` — every replica of a process cluster —
does not pay for the experiment runner, the metrics stack, the workload
generators or the in-process cluster at start-up.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Subsystems a replica never runs.
NOT_A_REPLICA = ("repro.experiments", "repro.metrics", "repro.workload", "repro.runtime.cluster")


def test_a_replica_loads_none_of_the_other_subsystems():
    script = (
        "import json, sys\n"
        "import repro.runtime.proc\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "repro.runtime.proc" in loaded
    assert [m for m in loaded if m.startswith(NOT_A_REPLICA)] == []


@pytest.mark.parametrize("package", ["repro", "repro.runtime"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        module.no_such_name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro.runtime import *", namespace)
    assert {"ProcessCluster", "LocalCluster", "encode_frame"} <= set(namespace)
