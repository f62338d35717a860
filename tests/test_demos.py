"""The quick demos run to completion.  ``02_train_transducer.py`` trains
for about 20 s and is left out."""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_autodiff_basics.py",
                                  "03_wx_and_error_tags.py",
                                  "04_oov_correction.py"])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(_ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
