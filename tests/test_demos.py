"""Each demo script runs to completion against the package in this checkout."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clpdd

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, f"no demo scripts under {ROOT / 'demos'}"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_public_function_has_a_caller_outside_the_tests():
    # a function in clpdd.__all__ is shown in the README, run by a demo, or
    # used by the CLI; one that only tests and internals call is not public
    text = "\n".join(
        p.read_text() for p in (ROOT / "README.md", ROOT / "src" / "clpdd" / "cli.py", *DEMOS)
    )
    uncalled = [
        name
        for name in clpdd.__all__
        if inspect.isfunction(getattr(clpdd, name))
        and not re.search(rf"\b{name}\(", text)
    ]
    assert uncalled == []


def test_readme_names_only_constants_bench_files_and_anchors_that_exist():
    # the README names each speed rule's constant and cites the BENCH file
    # behind each figure; a renamed constant or a dropped file leaves it stale
    text = (ROOT / "README.md").read_text()
    modules = [
        importlib.import_module(f"clpdd.{info.name}") for info in pkgutil.iter_modules(clpdd.__path__)
    ]
    section = text.split("\n## How a step runs\n")[1].split("\n## ")[0]
    constants = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", section))
    assert constants, "no constant named in How a step runs"
    assert sorted(c for c in constants if not any(hasattr(m, c) for m in modules)) == []
    benches = set(re.findall(r"\bBENCH_\w+\.json\b", text))
    assert sorted(b for b in benches if not (ROOT / b).is_file()) == []
    slugs = {
        re.sub(r"[^\w\- ]", "", h.strip().lower()).replace(" ", "-")
        for h in re.findall(r"^#+ (.+)$", text, flags=re.MULTILINE)
    }
    assert sorted(set(re.findall(r"\]\(#([^)]+)\)", text)) - slugs) == []
