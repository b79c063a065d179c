"""The benchmark's tracer still finds every function it wraps.

`bench/tracing.py` patches functions and methods of `src/` by name and checks
its `REQUIRED_BINDINGS`, so a rename under `src/` breaks the traced
benchmark run.  Installing the tracer in a fresh interpreter catches that in
seconds, without running a workload.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_source():
    code = "import tracing\ntracing.Tracer().install()\nprint('installed')\n"
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"
