"""The benchmark under ``perfbench/`` calls into ``prefrl`` by name; every
name it references must resolve, so no change to the package can drop one
the benchmark still calls.  The scripts are parsed, never imported."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for anything but a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _references(path: Path) -> set[str]:
    """Each ``prefrl`` name a script imports or reads through an imported
    ``prefrl`` module, as a dotted path from the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}   # local name -> dotted prefrl path
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prefrl":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                refs.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "prefrl":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            chain = _dotted(node)
            if chain and chain[0] in modules:
                refs.add(".".join([modules[chain[0]]] + chain[1:]))
    return refs


def _run_names(constant: str) -> set[str]:
    """A tuple of ``prefrl`` names that ``run.py`` defines (``LAYERS``,
    ``JUDGE_CALLS``), as dotted paths from the package."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == constant for t in node.targets):
            return {f"prefrl.{name}" for name in ast.literal_eval(node.value)}
    raise AssertionError(f"perfbench/run.py defines no {constant}")


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and read the rest as
    attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


REFERENCES = sorted(set().union(*(_references(p) for p in sorted(PERFBENCH.glob("*.py"))))
                    | _run_names("LAYERS") | _run_names("JUDGE_CALLS"))


def test_the_scan_sees_the_benchmark_entry_points():
    for name in ("prefrl.agent.update", "prefrl.encoder.encode_batch",
                 "prefrl.checkpoint.load_checkpoint", "prefrl.harness.build_world",
                 "prefrl.training.online_phase", "prefrl.config.load_config",
                 "prefrl.oracle.LLMOracle.choose", "prefrl.data"):
        assert name in REFERENCES


@pytest.mark.parametrize("name", REFERENCES)
def test_every_referenced_name_resolves(name):
    _resolve(name)
