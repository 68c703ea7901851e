"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import tanglekit

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

import tanglekit
from tanglekit import (
    check_axioms, conjugacy_census, core_kei, corpus, coxeter_quotient, jones, q_kei,
)
from tanglekit.kei import cyclic_group, group_product

assert len(corpus()) == 8
q = coxeter_quotient()
assert q.order == 600
assert len(conjugacy_census(q)) > 0
k = core_kei(group_product(cyclic_group(5), cyclic_group(5)))
assert check_axioms(k) == []
assert q_kei(2, 3).size == 3
assert jones(corpus()["trefoil"]).format("s")
print("ok")
"""


def test_runs_without_numpy():
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
