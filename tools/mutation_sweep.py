"""Mutation sweep: does some test fail when a check in ``src/hankelforge`` is
weakened?

Each mutant makes one change to one module:

* swap a comparison: ``==``/``!=``, ``<``/``<=``, ``>``/``>=``, ``in``/``not
  in``, ``is``/``is not``;
* swap ``and``/``or``, or drop one operand of a boolean operator;
* drop a ``not``;
* force the test of an ``if`` statement to True or to False.

Every mutant runs ``pytest -x`` on a copy of the tree, one copy per worker
(two at most), under a timeout; a mutant that fails a test or times out is
killed.  A mutant that survives is either listed in ``EQUIVALENT`` below,
with the reason no test can see it, or reported as an unexplained survivor.
``_fork.with_child`` is left out: forcing ``if pid == 0`` would let a forked
child return into pytest and run the rest of the session.

    python tools/mutation_sweep.py

The timeout is three times the unmutated run, plus 10 seconds.  The exit
status is 0 when no mutant survives unexplained and every entry of
``EQUIVALENT`` still names a surviving mutant.  The tier-1 suite does not run
the sweep, only a check that every ``EQUIVALENT`` key still names its mutant:
the whole sweep, 507 mutants, took 29 minutes on a 2-vCPU x86_64 VM under
CPython 3.11.
"""
from __future__ import annotations

import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "hankelforge")
SKIPPED_FUNCTIONS = {("_fork", "with_child")}
WORKERS = 2

_SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
          ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
          ast.Is: ast.IsNot, ast.IsNot: ast.Is}

# Mutants that no test can tell from the real code, keyed by (module,
# function, operator, ordinal of that operator within the function).  Each
# value is (the source of the node the mutant replaces, the reason); with the
# source, tests/test_package.py sees an edit that shifts the ordinals.
EQUIVALENT = {
    # fast paths and shortcuts: the general code gives the same result
    ("hankel", "_tau_step", "if->False", 0): ("divisor == 1", "the divisor == 1 shortcut of the w division"),
    ("hankel", "_tau_step", "if->False", 1): ("divisor == -1", "the divisor == -1 shortcut of the w division"),
    ("hankel", "_tau_step", "if->False", 3): ("divisor == 1", "the divisor == 1 shortcut of the q division"),
    ("hankel", "_tau_step", "if->False", 4): ("divisor == -1", "the divisor == -1 shortcut of the q division"),
    ("transforms", "_exact_table", "if->False", 1): ("k == 1", "for k == 1 the divisions are by powers of 1"),
    ("transforms", "_residue_table", "if->True", 0): (
        "t % J == 0", "a fold on every row: J >= 1 rows after a fold every lane is still below 2^L"),
    ("sequences", "_recur", "if->True", 2): ("r", "exact_div checks the division again and raises only on a remainder"),
    ("sequences", "_recur", "if->True", 4): ("r", "exact_div checks the division again and raises only on a remainder"),
    ("sequences", "_recur", "if->True", 5): ("r", "exact_div checks the division again and raises only on a remainder"),
    # where the exact table makes a list of its running column: the same sums either way
    ("transforms", "_exact_table", "if->True", 0): ("count % _CHAIN == 0", "a list of every column"),
    ("transforms", "_exact_table", "if->False", 0): (
        "count % _CHAIN == 0", "no list until the end: a chain N deep, which no test makes deep enough to fail"),
    ("transforms", "_exact_table", "Eq->NotEq", 0): ("count % _CHAIN == 0", "a list of every column but every 8th"),
    # the bound on U of a packed step: a step it refuses goes to the list form, with the same result
    ("hankel", "_packed_step", "Gt->GtE", 0): (
        "max_bits + max(c.bit_length(), minor.bit_length()) + 1 > lane - 2",
        "a bound one bit looser than needed: that step goes to the list form, with the same result"),
    ("hankel", "_packed_step", "drop-operand", 2): (
        "width < _PACK_MIN_LEN or divisor not in (1, -1) or "
        "max_bits + max(c.bit_length(), minor.bit_length()) + 1 > lane - 2",
        "the bound on V, taken once U's lanes are read, also refuses every step whose U could leave its "
        "lanes: it passes only with max_bits <= 4, where an overflowing U lane reads as 5 bits or more"),
    # ties: both sides of the boundary give the same value
    ("hankel", "_bareiss_det", "Gt->GtE", 0): ("tb > max_bits", "a tie on max_bits"),
    ("hankel", "_tau_step", "Gt->GtE", 0): ("b > max_bits", "a tie on max_bits"),
    ("hankel", "_tau_step", "Gt->GtE", 1): ("b > max_bits", "a tie on max_bits"),
    ("hankel", "det_laplace.expand", "Gt->GtE", 0): ("tb > stats[1]", "a tie on max_bits"),
    ("exact", "decimal_str", "Lt->LtE", 1): (
        "value < _STR_BOUND", "str gives the same 601 digits at 10**600, under every digit limit"),
    # boundaries that no input reaches
    ("hankel", "hankel_minors", "GtE->Gt", 0): (
        "sum(map(_hankel_cost, runs)) >= _FORK_MIN_COST",
        "a cost equal to the break-even: tests set it to 0 or 10**30, and no call there costs 0"),
    ("verify", "Claim.bounds", "Gt->GtE", 0): (
        "p > MAX_PRIME", "MAX_PRIME = 10**4 is not prime, so it is refused either way"),
    ("verify", "_quotient", "Gt->GtE", 0): (
        "q > 0", "a zero quotient is even, and each check that asks for a positive quotient asks for an odd one"),
    ("cli", "_csv", "if->False", 0): (
        "'\"' not in text and text.count('\\n') == count and (text.count(',') == (len(header) - 1) * count)",
        "the quoting pass writes the same text when no field needs quoting"),
    ("cli", "_write", "drop-operand", 1): (
        "exc.strerror or exc", "an OSError from a failed write to a file carries its strerror"),
    # the pipes between the process and its forked child
    ("_fork", "Channel.send", "if->True", 0): (
        "not self._eof",
        "after end of file the read end polls ready and reads nothing, until the write breaks the pipe"),
    ("_fork", "Channel.recv", "if->True", 0): (
        "len(inbox) >= need", "short of a header, the length it reads is above the inbox's"),
    ("_fork", "Channel.recv", "GtE->Gt", 0): (
        "len(inbox) >= need", "a lone header: no pickle is empty, so its message is not in either way"),
    ("_fork", "Channel.recv", "drop-operand", 0): (
        "self._eof or not self._read(max(need - len(inbox), 1 << 16))",
        "after end of file a read returns nothing, as _eof says"),
}


class Mutant(NamedTuple):
    module: str
    function: str
    operator: str
    ordinal: int
    code: str  # the source of the node that is replaced
    line: int
    source: str  # the whole mutated module

    @property
    def key(self) -> tuple[str, str, str, int]:
        return self.module, self.function, self.operator, self.ordinal


def _changes(node: ast.AST) -> list[tuple[str, ast.AST, str]]:
    """The mutations at ``node``: (operator, node whose source is replaced,
    the replacement)."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            swap = _SWAPS.get(type(op))
            if swap:
                ops = list(node.ops)
                ops[i] = swap()
                new = ast.Compare(node.left, ops, node.comparators)
                out.append((f"{type(op).__name__}->{swap.__name__}", node, f"({ast.unparse(new)})"))
    elif isinstance(node, ast.BoolOp):
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append((f"{type(node.op).__name__.lower()}->{type(other).__name__.lower()}", node,
                    f"({ast.unparse(ast.BoolOp(other, node.values))})"))
        for i in range(len(node.values)):
            rest = node.values[:i] + node.values[i + 1:]
            new = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
            out.append(("drop-operand", node, f"({ast.unparse(new)})"))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(("drop-not", node, f"({ast.unparse(node.operand)})"))
    elif isinstance(node, ast.If):
        out.append(("if->True", node.test, "True"))
        out.append(("if->False", node.test, "False"))
    return out


def mutants(module: str) -> list[Mutant]:
    """Every mutant of ``src/hankelforge/<module>.py``, in source order."""
    data = (ROOT / PACKAGE / f"{module}.py").read_bytes()
    lines = [0]  # where each line starts, in bytes, as ast counts its columns
    for line in data.splitlines(keepends=True):
        lines.append(lines[-1] + len(line))
    out: list[Mutant] = []
    seen: dict[tuple[str, str], int] = {}

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
            if (module, function) in SKIPPED_FUNCTIONS:
                return
        for operator, target, replacement in _changes(node):
            ordinal = seen.get((function, operator), 0)
            seen[function, operator] = ordinal + 1
            start = lines[target.lineno - 1] + target.col_offset
            end = lines[target.end_lineno - 1] + target.end_col_offset
            source = data[:start] + replacement.encode() + data[end:]
            out.append(Mutant(module, function, operator, ordinal, ast.unparse(target), target.lineno,
                              source.decode()))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(data), "<module>")
    return out


def _copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
    return dest


def _pytest(tree: Path, timeout: float) -> tuple[str, float]:
    """Run ``pytest -x`` in ``tree``: ("passed" | "failed" | "timeout", seconds)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    # a session of its own, so that a timeout also ends any child it forked;
    # the check of EQUIVALENT against the source is left out, as on a mutated
    # module it fails whatever the mutant does
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "--deselect", "tests/test_package.py::test_mutation_sweep_equivalents_name_mutants"],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout)
        outcome = "passed" if code == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        outcome = "timeout"
    return outcome, time.perf_counter() - start


def main() -> int:
    todo = [m for p in sorted((ROOT / PACKAGE).glob("*.py")) for m in mutants(p.stem)]
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as work:
        trees: queue.Queue[Path] = queue.Queue()
        for i in range(WORKERS):
            trees.put(_copy_tree(Path(work, f"tree{i}")))
        tree = trees.get()
        outcome, seconds = _pytest(tree, 3600)
        trees.put(tree)
        if outcome != "passed":
            print(f"the unmutated tree does not pass its tests ({outcome})", file=sys.stderr)
            return 2
        timeout = 3 * seconds + 10
        print(f"unmutated run {seconds:.1f} s; {len(todo)} mutants, timeout {timeout:.0f} s",
              file=sys.stderr)

        def run(m: Mutant) -> tuple[Mutant, str, float]:
            tree = trees.get()
            path = tree / PACKAGE / f"{m.module}.py"
            original = path.read_text()
            try:
                path.write_text(m.source)
                return (m, *_pytest(tree, timeout))
            finally:
                path.write_text(original)
                trees.put(tree)

        survivors, killed = [], set()
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        with ThreadPoolExecutor(WORKERS) as pool:
            for done, (m, outcome, seconds) in enumerate(pool.map(run, todo), 1):
                if outcome != "passed":
                    verdict = "killed"
                    killed.add(m.key)
                elif EQUIVALENT.get(m.key, ("",))[0] == m.code:
                    verdict = "equivalent"
                else:
                    verdict = "survived"
                    survivors.append(m)
                counts[verdict] += 1
                print(f"[{done}/{len(todo)}] {m.module}:{m.line} {m.function} {m.operator} "
                      f"#{m.ordinal}: {verdict} ({outcome}, {seconds:.1f} s)", file=sys.stderr)

    ran = {(m.key, m.code) for m in todo}
    print(f"{len(todo)} mutants: {counts['killed']} killed, {counts['equivalent']} equivalent, "
          f"{counts['survived']} unexplained survivors")
    for m in survivors:
        print(f"SURVIVED {m.key!r}  # {m.module}.py:{m.line}")
    # an entry that matches no mutant, or one that a test kills, is out of date
    stale = [k for k, (code, _) in EQUIVALENT.items() if (k, code) not in ran or k in killed]
    for k in stale:
        print(f"STALE {k!r}: {'killed' if k in killed else 'no such mutant'}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
