import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hankelforge
from hankelforge import Family, SequenceId, hankel, numtheory, verify
from hankelforge.exact import decimal_str
from hankelforge.sequences import CLF, domb, franel

from oracle_helpers import det_fractions, hankel_rows, iterated_transform_sum


def test_all_names_resolve():
    for name in hankelforge.__all__:
        getattr(hankelforge, name)  # AttributeError on a stale entry
    exec("from hankelforge import *", {})


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: syntax newer than that,
    # such as 3.11's except*, fails to parse here.  This reads syntax only; a
    # stdlib function added after 3.10 is not caught.
    sources = sorted(Path(hankelforge.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _imports(module):
    """The modules that ``hankelforge/<module>.py`` imports, a relative one
    with its leading dots."""
    path = Path(hankelforge.__file__).parent / f"{module}.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def test_fork_imports_nothing_from_the_package():
    # _fork is only the forked child's mechanism: the work is handed to it as
    # functions, so a change to what runs in the child does not touch it.
    names = _imports("_fork")
    assert "os" in names
    assert [name for name in names if name.startswith((".", "hankelforge"))] == []


def test_exact_imports_nothing_from_the_package():
    # Every other module calls the rule for integer arguments, so exact sits
    # below them all.
    assert [name for name in _imports("exact") if name.startswith((".", "hankelforge"))] == []


@pytest.mark.parametrize("value", (1.5, True, None))
def test_decimal_str_refuses_what_exact_int_refuses(value):
    with pytest.raises(ValueError, match="value must be an integer"):
        decimal_str(value)


def test_only_exact_compares_a_type_with_int():
    # The rule for integer arguments is written once, in exact.py (exact_int
    # and exact_ints), and every other module calls it.  A comparison that
    # reads both ``type`` and ``int``, such as ``type(n) is not int`` or
    # ``set(map(type, x)) != {int}``, is a second copy of the rule.
    places = []
    for path in sorted(Path(hankelforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if isinstance(node, ast.Compare) and {"type", "int"} <= names:
                places.append(path.name)
    assert set(places) == {"exact.py"}
    assert not {"exact_int", "exact_ints"} & set(hankelforge.__all__)


# Valid ids made through _replace; as any argument but an id, they are junk too.
_REPLACED_IDS = st.one_of(
    st.sampled_from([f for f in Family if f not in (Family.FRANEL_R, Family.DOMB_M)]).map(
        lambda family: CLF._replace(family=family)),
    st.integers(1, 6).map(lambda r: franel(3)._replace(param=r)),
    st.integers(1, 4).map(lambda m: domb(2)._replace(param=m)),
)
# arguments that are neither an int nor a list or tuple of ints
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.binary(max_size=3),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2),
    st.lists(st.integers(0, 3), max_size=3).map(iter),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3),
    _REPLACED_IDS,
)
_VALUES = st.lists(st.integers(-4, 4), max_size=7)


def _or_junk(strategy):
    # one_of would flatten _JUNK's branches and draw a valid argument rarely
    return st.integers(0, 3).flatmap(lambda i: _JUNK if i == 0 else strategy)


def _int(lo, hi):
    return _or_junk(st.integers(lo, hi))


def _ints(values=_VALUES):
    return _or_junk(st.one_of(values, values.map(tuple)))


_SEQUENCE_IDS = _or_junk(st.one_of(st.sampled_from([franel(3), domb(2), CLF]), _REPLACED_IDS))
_N = _int(-1, 6)
_PRIMES = _ints(st.lists(st.sampled_from([5, 7, 11, 4, 9]), max_size=3))


def _agree_on_det(result, values):
    return result.value == det_fractions(hankel_rows(values, len(values) // 2))


def _agree_on_minors(result, runs):
    return result == [[hankelforge.det_bareiss(v[: 2 * s - 1]).value for s in range(1, len(v) // 2 + 2)]
                      for v in runs]


def _agree_on_hypotheses(result, x, k):
    oks = [x[0] == 1] + [x[i] % (2 * k) == 0 and (x[i] % (4 * k) == 0) == bool(i & (i - 1))
                         for i in range(1, len(x))]
    return [(value, ok) for _, value, ok, _ in result] == list(zip(x, oks))


def _agree_with_claim(result, claim_id, *bounds):
    return (result == verify.REGISTRY[verify.CLAIM_IDS.index(claim_id)].run(*bounds)
            and all(e.value.lstrip("-").isdigit() for e in result.entries))


# Each public callable that takes integer arguments: where it lives, a
# strategy for its arguments, and a check of its result against its reference
# route.
_CALLS = {
    "Family": (Family, st.tuples(_or_junk(st.sampled_from(["franel", "clf"]))),
               lambda result, value: result.value == value),
    "SequenceId": (SequenceId, st.tuples(_or_junk(st.sampled_from(Family)), _int(-1, 3)),
                   lambda result, family, param: result == (family, param)),
    "franel": (franel, st.tuples(_int(-1, 7)), lambda result, r: result == (Family.FRANEL_R, r)),
    "domb": (domb, st.tuples(_int(-1, 4)), lambda result, m: result == (Family.DOMB_M, m)),
    "term": (hankelforge.term, st.tuples(_SEQUENCE_IDS, _N),
             lambda result, seq, n: result == hankelforge.prefix(seq, n).terms[-1]),
    "prefix": (hankelforge.prefix, st.tuples(_SEQUENCE_IDS, _N),
               lambda result, seq, n: result == (seq, tuple(hankelforge.term(seq, i) for i in range(n + 1)))),
    "det_bareiss": (hankelforge.det_bareiss, st.tuples(_ints()), _agree_on_det),
    "det_dodgson": (hankelforge.det_dodgson, st.tuples(_ints()), _agree_on_det),
    "det_laplace": (hankelforge.det_laplace, st.tuples(_ints()), _agree_on_det),
    "hankel_minors": (hankel.hankel_minors, st.tuples(_or_junk(st.lists(_ints(), max_size=2))),
                      _agree_on_minors),
    "quotient_check": (hankelforge.quotient_check, st.tuples(_int(-50, 50), _int(0, 5), _int(-1, 4)),
                       lambda result, d, b, e: result * b**e == d if d % b**e == 0 else result is None),
    "exact_div": (hankelforge.exact_div, st.tuples(_int(-20, 20), _int(-4, 4)),
                  lambda result, num, den: result * den == num),
    "binomial_transform": (hankelforge.binomial_transform, st.tuples(_ints()),
                           lambda result, x: result == iterated_transform_sum(x, 1)),
    "iterated_transform": (
        hankelforge.iterated_transform,
        st.tuples(_ints(), _int(-1, 4)).flatmap(
            lambda args: st.one_of(st.just(()), st.tuples(st.one_of(st.none(), _int(-1, 30)))).map(args.__add__)),
        lambda result, x, k, m=None: result == [y if m is None else y % m for y in iterated_transform_sum(x, k)]),
    "lemma23_hypothesis_check": (numtheory.lemma23_hypothesis_check, st.tuples(_ints(), _int(-1, 3)),
                                 _agree_on_hypotheses),
    "run_claim": (
        hankelforge.run_claim,
        st.tuples(_or_junk(st.sampled_from(verify.CLAIM_IDS)), st.one_of(st.none(), _N), _PRIMES),
        _agree_with_claim),
    "run_all": (hankelforge.run_all, st.tuples(st.one_of(st.none(), _int(3, 4)), _PRIMES),
                lambda result, *bounds: result == [verify.run_claim(c, *bounds) for c in verify.CLAIM_IDS]),
}
# records and the exception keep what they are given, and check nothing
_UNCHECKED = {"DetResult", "InexactDivisionError", "ReportEntry", "SequenceTerms", "VerificationReport",
              "Witness"}


def _floats(result):
    if isinstance(result, float):
        return True
    return isinstance(result, (list, tuple)) and any(map(_floats, result))


# Each call either raises ValueError or gives what its reference route gives;
# it never raises another exception or returns a float.  The one exception is
# exact_div, which keeps the ZeroDivisionError of // and raises
# InexactDivisionError on a remainder.  Sizes stay small: a few values, n <= 6.
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_public_callables_refuse_what_is_not_an_int_or_agree_with_their_reference(data):
    # a public callable added later is listed in _CALLS or _UNCHECKED
    public = {name for name in hankelforge.__all__ if callable(getattr(hankelforge, name))}
    assert public == set(_CALLS) - {"hankel_minors", "lemma23_hypothesis_check"} | _UNCHECKED
    name = data.draw(st.sampled_from(sorted(_CALLS)), label="callable")
    func, arguments, reference = _CALLS[name]
    args = data.draw(arguments, label="args")
    try:
        result = func(*args)
    except ValueError:
        return
    except ArithmeticError as exc:
        assert name == "exact_div"
        num, den = args
        assert type(exc) is (ZeroDivisionError if den == 0 else hankelforge.InexactDivisionError)
        assert den == 0 or num % den
        return
    assert not _floats(result)
    assert reference(result, *args)


def test_exported_records_are_named_tuples():
    # Every record the package exports is a named tuple; the enum and the
    # exception are its only other classes.
    for name in hankelforge.__all__:
        obj = getattr(hankelforge, name)
        if isinstance(obj, type) and name not in ("Family", "InexactDivisionError"):
            assert issubclass(obj, tuple) and hasattr(obj, "_fields"), name


def test_no_function_is_cached_for_the_life_of_the_process():
    # A functools cache on a module-level function or a method keeps every
    # argument and result until the process ends, so none is kept unless a
    # measurement shows it pays.  One on a function nested in a call (as in
    # det_laplace) goes with the call.
    cachers = {"cache", "lru_cache", "cached_property"}
    for path in sorted(Path(hankelforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in (node for scope in scopes for node in scope.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
                assert name not in cachers, f"{path.name}:{node.lineno} {node.name}"


def test_cli_import_loads_no_dataclasses_json_or_fork():
    # Each would add start-up time to every CLI run that does not need it:
    # json is imported by its format alone, _fork (and signal with it) past
    # a cost bound, and csv not at all.
    # -S: what site imports is the installation's, not the package's.
    src = Path(hankelforge.__file__).resolve().parents[1]
    refused = ("dataclasses", "json", "hankelforge._fork", "csv", "signal")
    code = f"import sys, hankelforge.cli; print(' '.join(m for m in {refused!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == ""


def test_benchmark_worker_sets_up_and_its_warmup_matches_the_reference():
    # Every benchmark run starts with this step, so a package edit that
    # crashes it (say, deleting a module the worker imports) fails here.
    # warmup_ok: the warm-up pass matched hfbench/reference.json.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "hfbench/worker.py", "--mode", "setup", "--workload", "claims-long"],
                         cwd=root, capture_output=True, text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    (line,) = out.stdout.splitlines()
    event = json.loads(line)
    assert event["event"] == "ready" and event["warmup_ok"] is True


def test_benchmark_traced_pass_succeeds(tmp_path):
    # The tracer wraps package functions by name and reads what they return,
    # so a package edit it does not expect (say, prefix returning a bare
    # tuple) makes every traced pass fail.  Untraced and traced passes
    # alternate, so a result with two passes holds one traced pass.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "hfbench/worker.py", "--mode", "trace", "--workload", "parity-wide",
                          "--seconds", "0", "--trace-out", str(tmp_path / "t.json")],
                         cwd=root, capture_output=True, text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    ready, result = (json.loads(line) for line in out.stdout.splitlines())
    assert ready["event"] == "ready" and ready["warmup_ok"] is True
    assert result["event"] == "result" and len(result["passes"]) >= 2
    assert all(p["ok"] for p in result["passes"])


def test_mutation_sweep_equivalents_name_mutants():
    # The sweep keys each known equivalent mutant by its ordinal within a
    # function, so adding or removing a comparison or an ``if`` there shifts
    # the keys, and an entry names another mutant or none.  The sweep takes
    # minutes; this reads the mutants' keys and sources without running one.
    path = Path(__file__).resolve().parents[1] / "tools" / "mutation_sweep.py"
    spec = importlib.util.spec_from_file_location("mutation_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    made = {m.key: m.code for module in {k[0] for k in sweep.EQUIVALENT} for m in sweep.mutants(module)}
    assert {k: made.get(k) for k in sweep.EQUIVALENT} == {k: code for k, (code, _) in sweep.EQUIVALENT.items()}


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Reporting a falsifying example imports a module that warns on import.
    # With every warning an error, that ended the session with INTERNALERROR
    # and left the tests after it unrun.  tmp_path is the cwd, so the
    # example database goes there and not into the repository.
    (tmp_path / "test_example.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_falsified(x):\n    assert x < 0\n\n\n"
        "def test_after():\n    pass\n")
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(root / "pyproject.toml"), "test_example.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def _readme_blocks(language):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_library_example_runs():
    (block,) = _readme_blocks("python")
    exec(block, {})


def test_readme_cli_examples_print_what_their_comments_say(capsys):
    # A command followed by a "# line 1 / line 2 / ..." comment is checked.
    from hankelforge import cli

    checked = 0
    for block in _readme_blocks("sh"):
        lines = block.splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("hankelforge ") and comment.startswith("# "):
                assert cli.run(shlex.split(command)[1:]) == 0, command
                assert " / ".join(capsys.readouterr().out.splitlines()) == comment[2:], command
                checked += 1
    assert checked == 2
