"""Every name a module under src/frsicl imports is used in that module,
and importing the package does not load the HTTP stack.

Package `__init__.py` files are skipped: their imports are re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "frsicl"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\nfrom typing import List, Tuple\n"
              "def f(x: List[int]) -> None:\n    os.path.join(x)\n")
    assert unused_imports(source) == [(3, "json"), (4, "Tuple")]


def test_no_unused_imports_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_http_stack_loads_only_with_an_http_backend():
    # certifi is left out: the interpreter's site hooks may load it
    script = (
        "import sys\n"
        "import frsicl, frsicl.cli, frsicl.harness, frsicl.icl\n"
        "print(sorted(m for m in ('requests', 'urllib3', 'ssl') if m in sys.modules))\n"
        "frsicl.icl.make_backend('http', 'http://x', 1.0)\n"
        "print('requests' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "True"]
