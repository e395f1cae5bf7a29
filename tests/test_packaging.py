"""The package metadata ``setup.py`` declares."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_declares_the_package_name_and_version():
    pytest.importorskip("setuptools")
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]
