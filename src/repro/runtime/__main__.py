"""``python -m repro.runtime --spec spec.json --group G --replica I``: run one
replica of a process cluster (:func:`repro.runtime.proc.main`).

The entry point is the package's, not :mod:`repro.runtime.proc`'s: a module
run as ``__main__`` is a second copy of itself beside any import of it by
name.  The package imports none of its submodules eagerly, so a replica
loads only what ``proc`` needs.
"""

import sys

from .proc import main

if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
