"""A seeded fuzz of the command line.

Hypothesis mutates DIMACS, QDIMACS, trace and model text and the flags of
every subcommand, and runs `cli.run` on them. Every run must return one
of the documented exit codes and raise nothing. Exit 64 (usage) must come
only from a flag or a `--clause` argument made bad on purpose: `run` maps
every `ValueError` to 64, so an internal fault that raises one would
otherwise pass for a usage error. The inputs stay at a few variables, so
the runs stay fast.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from blockcheck import EliminationConfig, cli, eliminate_clauses, first_model, parse_dimacs
from blockcheck.engine import write_model

EXIT_CODES = {0, 1, 2, 64, 65, 66, 70, 74}

CNF = "p cnf 5 8\n1 2 0\n-1 3 0\n-2 -3 4 0\n-4 5 0\n1 -1 5 0\n3 -5 0\n-3 0\n2 4 -5 0\n"
QDIMACS = "p cnf 4 3\na 1 0\ne 2 3 4 0\n1 2 0\n-1 3 -4 0\n-2 4 0\n"

# what a mutation may insert or put in place of a token
SNIPPETS = [
    b" ", b"\n", b"\r", b"0", b"-", b"1", b"-2", b"7", b"99999999999", b"x", b"c", b"%",
    b"p cnf 3 2", b"p cnf -1 0", b"a 1 0", b"e 2 0", b"d bc", b"d supbc", b"d rt", b"wt",
    b"w", b"v", b"-0", b"+1", b"00", b"\x00", b"\xff", "é".encode(), b"\x0c",
]


@st.composite
def mutated(draw, text):
    """`text` as bytes after up to three edits (none a third of the time): a
    deleted span, an inserted snippet, a token replaced by a snippet, or a
    line repeated."""
    data = text.encode()
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        op = draw(st.sampled_from(("delete", "insert", "replace", "repeat")))
        at = draw(st.integers(0, len(data)))
        if op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 6)):]
        elif op == "insert":
            data = data[:at] + draw(st.sampled_from(SNIPPETS)) + data[at:]
        elif op == "replace":
            toks = data.split(b" ")
            i = at % len(toks)
            toks[i] = draw(st.sampled_from(SNIPPETS))
            data = b" ".join(toks)
        else:
            lines = data.split(b"\n")
            i = at % len(lines)
            lines.insert(i, lines[i])
            data = b"\n".join(lines)
    return data


TAUTOLOGY = "1 -1 0"
CLAUSES = ["1 2 0", "-3 0", "0", TAUTOLOGY, "2 -4 5 0", "6 0", " 1  2 0 "]

# values that make a flag bad; in the templates below, "{cnf}" and the
# other names stand for the files the fixture writes
BAD_VALUES = {
    "--k": ["0", "-1", "x", ""], "--ext-cap": ["-1", "x"], "--cap": ["-2", "1.5"],
    "--incomplete": ["0", "x"], "--rounds": ["0", "-3"], "--order": ["sideways"],
    "--property": ["nosuch", ""], "--vars": ["0", "x"], "--clauses": ["-1"], "--width": ["0"],
    "--seed": ["x"], "--clause": ["1 x 0", "1 0 2", "0 0", "1 - 0"],
}


@st.composite
def commands(draw):
    """(argv template, whether a flag or clause argument was made bad)."""
    kind = draw(st.sampled_from(("check", "classify", "eliminate", "reconstruct", "encode-qbf",
                                 "solve-brute", "gen-reduction", "gen-random")))
    if kind == "check":
        prop = draw(st.sampled_from(cli.CHECKABLE))
        argv = ["check", "{cnf}", "--property", prop, "--clause", draw(st.sampled_from(CLAUSES))]
        extras = [["--k", "1"], ["--k", "2"], ["--ext-cap", "3"], ["--cap", "12"],
                  ["--incomplete", "3", "--seed", "5"], ["--strict"]]
    elif kind == "classify":
        argv = ["classify", "{cnf}", "--out", "{out}"]
        extras = [["--property", "bc,rt"], ["--property", "setbc", "--property", "supbc,as"],
                  ["--k", "1"], ["--ext-cap", "2"], ["--strict"]]
    elif kind == "eliminate":
        prop = draw(st.sampled_from(cli.PROPERTIES))
        argv = ["eliminate", "{cnf}", "--property", prop, "--out", "{out}", "--trace", "{out}.trace"]
        extras = [["--order", "descending-length"], ["--rounds", "2"], ["--compact"],
                  ["--k", "2"], ["--ext-cap", "2"], ["--strict"]]
    elif kind == "reconstruct":
        argv = ["reconstruct", "{cnf}", "--trace", draw(st.sampled_from(("{bc}", "{supbc}", "{compact}", "{rat}"))),
                "--model", "{model}", "--out", "{out}"]
        extras = [["--strict"]]
    elif kind == "encode-qbf":
        argv = ["encode-qbf", "{cnf}", "--clause", draw(st.sampled_from(CLAUSES)), "--out", "{out}"]
        extras = [["--strict"]]
    elif kind == "solve-brute":
        argv = ["solve-brute", "{cnf}", "--out", "{out}"]
        extras = [["--cap", "12"], ["--cap", "2"], ["--strict"]]
    elif kind == "gen-reduction":
        which = draw(st.sampled_from(("sat2setbc", "qbf2supbc", "unsat2ksupbc")))
        source = "{qdimacs}" if which == "qbf2supbc" else "{cnf}"
        argv = ["gen-reduction", which, source, "--out", "{out}"]
        extras = [["--clause-out", "{out}.clause"], ["--strict"]]
    else:
        argv = ["gen-random", "--out", "{out}"]
        extras = [["--vars", "4"], ["--clauses", "0"], ["--width", "2"], ["--seed", "-3"]]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=2, unique_by=tuple)):
        argv += extra
    # the elimination characterization takes no tautology, so a tautological
    # --clause is a bad one for encode-qbf and varelim
    refused = TAUTOLOGY in argv and (kind == "encode-qbf" or "varelim" in argv)
    bad = draw(st.sampled_from((False, False, False, True)))
    if bad:
        flags = [i for i, a in enumerate(argv) if a in BAD_VALUES and i + 1 < len(argv)]
        how = draw(st.sampled_from(("value", "unknown", "drop", "clause-index")))
        if how == "value" and flags:
            i = draw(st.sampled_from(flags))
            argv[i + 1] = draw(st.sampled_from(BAD_VALUES[argv[i]]))
        elif how == "drop" and kind in ("check", "eliminate", "reconstruct", "gen-reduction"):
            # a required flag, or the clause, goes with its value
            i = argv.index({"check": "--property", "eliminate": "--property",
                            "reconstruct": "--model", "gen-reduction": "--out"}[kind])
            if kind == "check" and draw(st.booleans()):
                i = argv.index("--clause")
            del argv[i:i + 2]
        elif how == "clause-index" and kind in ("check", "encode-qbf"):
            argv += ["--clause-index", "0"]  # both --clause and --clause-index
        elif kind == "classify":
            argv += ["--property", draw(st.sampled_from((",", "bc,bc", "nosuch")))]
        elif kind == "gen-reduction":  # stdout, and no --clause-out
            argv = [a for a in argv if a not in ("--clause-out", "{out}.clause")]
            argv[argv.index("--out") + 1] = "-"
        else:
            argv.insert(1, "--nosuch")
    return argv, bad or refused


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The texts each run mutates: a formula, a QBF, four traces of the
    formula and a model of it (which satisfies every residual)."""
    f = parse_dimacs(CNF)
    texts = {"cnf": CNF, "qdimacs": QDIMACS, "model": write_model(first_model(f))}
    for name, prop, compact in (("bc", "bc", False), ("supbc", "supbc", False),
                                ("compact", "supbc", True), ("rat", "rat", False)):
        _, trace = eliminate_clauses(f, EliminationConfig(property=prop, compact_witnesses=compact))
        texts[name] = trace.to_text()
    return tmp_path_factory.mktemp("fuzz"), texts


def run_quietly(argv):
    """Exit code and stderr of one run; header-count warnings are dropped."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.run(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_run_ends_in_a_documented_exit(files, data):
    where, texts = files
    argv, bad = data.draw(commands())
    paths = {"out": str(where / "out")}
    for name, text in texts.items():
        path = where / name
        if "{%s}" % name in argv:
            path.write_bytes(data.draw(mutated(text), label=name))
        paths[name] = str(path)
    argv = [a.format(**paths) for a in argv]
    code, err = run_quietly(argv)
    assert code in EXIT_CODES, (argv, code, err)
    if code == 64:
        assert bad, (argv, err)
