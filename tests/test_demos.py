"""The demo scripts run to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["demo_striping.py", "demo_copy_flow.py"])
def test_demo_runs(script):
    assert run_demo(script)


def test_striping_demo_prints_each_servers_share_of_the_text():
    """The 5:7 stripe gives alpha bytes 0-4 and beta bytes 5-11 of every 12."""
    text = (b"pack my box with five dozen liquor jugs " * 2)[:72]
    alpha = b"".join(text[i : i + 5] for i in range(0, 72, 12))
    beta = b"".join(text[i + 5 : i + 12] for i in range(0, 72, 12))
    lines = run_demo("demo_striping.py").splitlines()
    assert f"alpha.demo: {alpha!r}" in lines and f"beta.demo: {beta!r}" in lines
