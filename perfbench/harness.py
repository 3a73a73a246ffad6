"""Shared plumbing: where the checkout and the work directory are, how the
program is imported from source, and how one operation is executed."""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import time
from pathlib import Path

from oracle import observe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# run dirs, operator JSONs, results and spans; listed in the root .gitignore
WORK = Path(".perfbench-out")
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class SourceMissing(RuntimeError):
    pass


def load_cli():
    """Import ``ergolab.cli`` from the checkout's ``src`` directory."""
    if not (SRC / "ergolab" / "cli.py").is_file():
        raise SourceMissing(f"no ergolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ergolab.cli
    return ergolab.cli


def run_op(main, op, out_dir: Path):
    """Run one operation in-process; return (latency_s, observation).

    Any exception escaping ``main`` is a failed operation, recorded by type;
    the caller goes on with the next operation.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = op.full_argv(str(out_dir))
    sink_out, sink_err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = main(argv)
    except Exception as e:  # noqa: BLE001 - benchmark boundary, see docstring
        error = type(e).__name__
    latency = time.perf_counter() - t0
    obs = observe(out_dir, code, error)
    shutil.rmtree(out_dir, ignore_errors=True)
    return latency, obs
