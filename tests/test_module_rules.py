"""Rules about how the package's modules import each other, checked on their
source: every ``__all__`` name resolves, ``nn`` (the finite-difference
oracle) imports nothing from the package it verifies, and the reference spec
in ``tests/helpers.py`` shares no private helper with the code it checks.
Also: the subcommands the README and ``cli.py`` name are the parser's, its
method choices are the training module's, only ``agent`` builds a
``TransitionBatch`` from its columns, every training step is taken by the
one rollout loop, ``online_phase`` is that loop's one online
caller, the one learner is stepped by the two learner classes, every parameter
update is the one optimizer step, and the harness runs every online method from one call site and
every preset from one per-seed loop.  The package needs nothing outside the
standard library but numpy, to import or to run."""
from __future__ import annotations

import argparse
import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from prefrl import cli, harness, training
from prefrl.config import ConfigError, load_config

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prefrl"
README = PACKAGE.parents[1] / "README.md"


def _imports(path: Path) -> list[tuple[str, str | None, str]]:
    """(module, name, local name) for each import in ``path``: ``import m``
    gives ``(m, None, m's first part)``; ``from m import x as y`` gives
    ``(m, x, y)``, with a relative ``m`` resolved inside ``prefrl``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(["prefrl"] + ([module] if module else []))
            found += [(module, alias.name, alias.asname or alias.name) for alias in node.names]
    return found


def _in_package(module: str) -> bool:
    return module.split(".")[0] == "prefrl"


MODULES_WITH_ALL = sorted(path.stem for path in PACKAGE.glob("*.py")
                          if "__all__" in path.read_text(encoding="utf-8"))


def test_the_scan_sees_the_modules():
    assert {"agent", "nn", "checkpoint", "training"} <= set(MODULES_WITH_ALL)
    assert ("prefrl.encoder", "encode", "encode") in _imports(PACKAGE / "agent.py")


@pytest.mark.parametrize("module", MODULES_WITH_ALL)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"prefrl.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"prefrl.{module}.__all__ lists undefined {missing}"


def test_nn_imports_nothing_from_the_package():
    imported = [module for module, _, _ in _imports(PACKAGE / "nn.py") if _in_package(module)]
    assert not imported, f"nn.py imports {imported}"


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "prefrl"}
    outside = sorted({f"{path.name}: {module}" for path in PACKAGE.glob("*.py")
                      for module, _, _ in _imports(path)
                      if module.split(".")[0] not in allowed})
    assert not outside, outside


def test_importing_the_package_loads_no_third_party_module_but_numpy():
    # measured against a bare interpreter, so modules that site hooks load
    # do not count
    probe = ("import sys; before = set(sys.modules); import prefrl.harness; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "prefrl" in loaded
    assert not loaded & {"requests", "urllib3"}
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "prefrl"}, loaded


def test_the_oracle_tests_do_not_import_requests():
    path = Path(__file__).resolve().parent / "test_oracle.py"
    assert "requests" not in {module.split(".")[0] for module, _, _ in _imports(path)}


def test_helpers_use_no_private_package_name():
    path = Path(__file__).resolve().parent / "helpers.py"
    package_imports = [(name, local) for module, name, local in _imports(path)
                       if _in_package(module)]
    assert package_imports, "the scan found no prefrl import in tests/helpers.py"
    private = [name for name, _ in package_imports if name and name.startswith("_")]
    assert not private, f"tests/helpers.py imports private {private}"
    # a private name read through an imported name counts too (``agent._x``)
    bound = {local for _, local in package_imports}
    through = [node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and isinstance(node.value, ast.Name) and node.value.id in bound]
    assert not through, f"tests/helpers.py reads private {through}"


def _callers(name: str) -> list[str]:
    """``module.name`` of the top-level function or class around each call
    of ``name`` (``name(...)`` or ``x.name(...)``) in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_transitions_are_built_only_by_the_rollout_loop():
    # one loop takes every training step: pre-training, the schemes and the
    # baselines all learn from the transitions ``training._rollout`` builds
    assert _callers("Transition") == ["training._rollout"]


def test_only_the_agent_module_lays_out_the_experience_columns():
    # ``TransitionBatch`` declares the columns; every other module builds one
    # through its ``empty``/``of``/``take`` and never spells the layout out
    assert {caller.split(".")[0] for caller in _callers("TransitionBatch")} == {"agent"}


def test_the_rollout_loop_has_one_online_caller():
    # every online method, schemes and baselines alike, is built and run by
    # ``online_phase``; ``run_baseline`` only starts it from the scratch agent
    assert _callers("_rollout") == ["training.pretrain", "training.online_phase"]


def test_the_learner_is_reached_from_the_two_learner_classes():
    # one batched learner, ``agent.update``, stepped by the replay TD learner
    # and the episodic REINFORCE learner the rollout loop is handed
    assert _callers("update") == ["training._ReplayTD", "training._Reinforce"]


def test_every_parameter_update_is_the_one_optimizer_step():
    # the learner and the sequential reward model's fit both step through
    # ``nn.optimizer_step``, so no second step function, with its own
    # gradient lifecycle, can come back unnoticed
    assert _callers("optimizer_step") == ["agent.update", "environment._fit_sequential"]


def test_parser_choices_are_the_training_method_names():
    parser = cli.build_parser()
    scheme = next(a for a in parser._actions if "--scheme" in a.option_strings)
    assert tuple(scheme.choices) == training.SCHEMES
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["baseline"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == training.BASELINE_KINDS
    assert training.ONLINE_METHODS == training.SCHEMES + training.BASELINE_KINDS


def test_strategy_choices_are_the_harness_aliases():
    # the flag accepts what ``[training] strategy`` accepts, and a bad name
    # is refused with the same list
    parser = cli.build_parser()
    strategy = next(a for a in parser._actions if "--strategy" in a.option_strings)
    assert tuple(strategy.choices) == tuple(harness.STRATEGY_ALIASES)
    with pytest.raises(ConfigError, match=re.escape(f"({'|'.join(harness.STRATEGY_ALIASES)})")):
        harness.strategy_from(load_config(None), "bogus")


def test_the_harness_has_one_online_call_and_one_seed_loop():
    # every online run, scheme or baseline, is ``_run_method``'s one
    # ``online_phase`` call, and every preset runs ``_run_preset``'s loop
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    assert [c for c in _callers("online_phase") if c.startswith("harness.")] == \
        ["harness._run_method"]
    named = {name for node in ast.walk(tree)
             for name in (getattr(node, "id", None), getattr(node, "attr", None))}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "run_baseline" not in named
    seeds = [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             and isinstance(node.slice, ast.Constant) and node.slice.value == "seeds"]
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and ast.unparse(node.iter) == "cfg['harness']['seeds']"]
    assert len(seeds) == 1 and len(loops) == 1, [ast.unparse(node) for node in seeds]


def _subcommands() -> set[str]:
    parser = cli.build_parser()
    return {choice for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for choice in action.choices}


def test_readme_command_block_names_every_subcommand():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    assert block, "README.md has no sh block under '## Command line'"
    named = set()
    for line in block.group(1).splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[:1] == ["prefrl"], line
        try:
            named.add(cli.build_parser().parse_args(argv[1:]).command)
        except SystemExit:
            pytest.fail(f"README.md command does not parse: {line}")
    assert named == _subcommands()


def test_cli_docstring_names_every_subcommand():
    found = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__)
    assert found, "cli.py's docstring has no 'Subcommands: ...' sentence"
    assert {name.strip() for name in found.group(1).split(",")} == _subcommands()
