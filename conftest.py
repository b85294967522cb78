"""Load every traced cnotcalc layer before any test runs.

``perfbench/tests/test_perfbench.py`` snapshots the attributes of each
loaded ``cnotcalc`` module around ``tracer.install``, which imports all ten
traced layers; a CLI command now loads only the layers it runs, so the
snapshot has to start with the ten already loaded.  This goes once that
test imports the layers by name itself.
"""

import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

for layer in ("cli", "formats", "circuit", "relation", "gf2", "normalize", "synth",
              "rewrite", "lawsuites", "fuzzing"):
    importlib.import_module(f"cnotcalc.{layer}")
