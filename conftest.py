"""Load every traced cnotcalc layer, and ``symbolic``, before any test runs.

``perfbench/tests/test_perfbench.py`` snapshots the attributes of each
loaded ``cnotcalc`` module around ``tracer.install``, which imports all ten
traced layers; a CLI command now loads only the layers it runs, so the
snapshot has to start with the ten already loaded.  The same test then
calls ``Circuit.semantics``, which imports ``symbolic`` on first use and so
binds it on the package: loaded here, it is in the snapshot before, not
only after.  This goes once that test imports the layers by name itself.
"""

import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

for layer in ("cli", "formats", "circuit", "relation", "gf2", "normalize", "synth",
              "rewrite", "lawsuites", "fuzzing", "symbolic"):
    importlib.import_module(f"cnotcalc.{layer}")
