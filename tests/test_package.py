import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import hankelforge


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


def test_fork_imports_nothing_from_the_package():
    # _fork is only the forked child's mechanism: the work is handed to it as
    # functions, so a change to what runs in the child does not touch it.
    path = Path(hankelforge.__file__).parent / "_fork.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert "os" in names
    assert [name for name in names if name.startswith((".", "hankelforge"))] == []


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
