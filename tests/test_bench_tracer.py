"""The benchmark's tracer must find, wrap and restore every name it patches,
and the library must call through the names it wraps.

`perfbench/tracing.py` wraps module names such as `cli.is_set_blocked` by
name while a traced round runs. A refactor that renames or drops one of
them breaks only traced bench runs unless a test enters the tracer too.
"""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("command", ["classify", "eliminate"])
def test_the_engine_calls_the_super_blocking_decider_the_tracer_wraps(
    tmp_path, ex_full_blocking, command
):
    # the engine reaches blocking.check_super_blocked as a module attribute;
    # a name imported into the engine would bypass the wrapper, and the
    # bench's scan time and per-restriction counts would read 0
    f, c = ex_full_blocking
    path = tmp_path / "f.cnf"
    # c first, so elimination checks it before its environment goes
    path.write_text("p cnf 3 4\n%s\n" % "\n".join(d.dimacs() for d in [c, *f.without(c)]))
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        argv = [command, str(path), "--property", "supbc", "--out", str(tmp_path / "out")]
        assert cli.run(argv) == 0
    assert any(span[0] == "blocking.check_super_blocked" for span in tracer.spans)
    assert tracer.counts["blocking.per_tau_rows"] > 0
