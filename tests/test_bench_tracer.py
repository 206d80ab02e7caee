"""The benchmark's tracer must find, wrap and restore every name it patches.

`perfbench/tracing.py` wraps module names such as `cli.is_set_blocked` by
name while a traced round runs. A refactor that renames or drops one of
them breaks only traced bench runs unless a test enters the tracer too.
"""

import importlib.util
from pathlib import Path

from blockcheck import blocking, cli, engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracing = _load_tracing()
    owners = {
        "cli": vars(cli),
        "engine": vars(engine),
        "blocking": vars(blocking),
        "engine._CHECKS": engine._CHECKS,
        "EliminationTrace": vars(engine.EliminationTrace),
    }
    before = {name: dict(ns) for name, ns in owners.items()}
    with tracing.Tracer().installed():
        wrapped = {
            (name, attr)
            for name, ns in owners.items()
            for attr, value in before[name].items()
            if ns.get(attr) is not value
        }
    # the names the check command calls its set- and super-blocking deciders by
    assert ("cli", "is_set_blocked") in wrapped
    assert ("cli", "check_super_blocked") in wrapped
    assert {p for name, p in wrapped if name == "engine._CHECKS"} == set(engine.PROPERTIES)
    for name, attr in wrapped:
        assert owners[name][attr] is before[name][attr], (name, attr)
    for name, ns in owners.items():
        assert dict(ns) == before[name], name
