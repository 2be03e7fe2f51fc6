import os
import subprocess
import sys
from pathlib import Path

import hankelforge


def test_all_names_resolve():
    for name in hankelforge.__all__:
        getattr(hankelforge, name)  # AttributeError on a stale entry
    exec("from hankelforge import *", {})


def test_cli_import_loads_no_dataclasses_json_or_fork():
    # Each would add start-up time to every CLI run that does not need it:
    # json is imported by its format alone, and _fork past a cost bound.
    # -S: what site imports is the installation's, not the package's.
    src = Path(hankelforge.__file__).resolve().parents[1]
    code = ("import sys, hankelforge.cli; "
            "print(' '.join(m for m in ('dataclasses', 'json', 'hankelforge._fork') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == ""
