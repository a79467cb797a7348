"""README's library sketch runs as written, importing from the source tree."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 1.0  # the sketch prints its MAT
