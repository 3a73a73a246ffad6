"""Correctness oracle: what an operation produced, and whether it matches
the reference stored from an earlier commit.

An observation holds the exit code (or the exception type that escaped
``main``), the verdict of every report file, the numeric quantities the
certified checks and Monte Carlo estimates stand on, and the sha256 of
every run-dir file.  Verdicts and exit codes must match exactly; numbers
within ``TOLERANCES``.  File digests are informational: a file whose bytes
moved while its checked quantities stayed within tolerance counts in
``cli.files_changed``, not as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TOLERANCES = {"rtol": 1e-9, "atol": 1e-12}

# numeric JSON leaves the oracle checks: measured constants of the bound
# checks (K, max_ratio) and Monte Carlo estimate summaries
_NUMERIC_KEYS = {"K", "max_ratio", "mean", "max", "moment2"}


def _flatten(obj, prefix, numbers, verdicts, path):
    if isinstance(obj, dict):
        if "verdict" in obj and isinstance(obj["verdict"], str):
            verdicts[path] = obj["verdict"]
        for k in sorted(obj):
            v = obj[k]
            name = f"{prefix}.{k}" if prefix else k
            if k in _NUMERIC_KEYS and isinstance(v, (int, float)) and not isinstance(v, bool):
                numbers[f"{path}:{name}"] = float(v)
            elif k == "per_sample" and isinstance(v, list):
                numbers[f"{path}:{name}"] = [float(x) for x in v]
            elif isinstance(v, dict):
                _flatten(v, name, numbers, verdicts, path)


def _last_csv_row(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        return {}
    out = {}
    for col, cell in zip(rows[0], rows[-1]):
        try:
            out[col] = float(cell)
        except ValueError:
            continue
    return out


def observe(out_dir: Path, exit_code, error: str | None) -> dict:
    """Inspect everything one operation wrote under ``out_dir``."""
    files, numbers, verdicts = {}, {}, {}
    size = 0
    for f in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = f.relative_to(out_dir).as_posix()
        data = f.read_bytes()
        size += len(data)
        files[rel] = hashlib.sha256(data).hexdigest()
        if f.suffix == ".json":
            _flatten(json.loads(data), "", numbers, verdicts, f.name)
        elif f.suffix == ".csv":
            for col, v in _last_csv_row(f).items():
                numbers[f"{f.name}:last.{col}"] = v
    return {"exit": exit_code, "error": error, "verdicts": verdicts,
            "numbers": numbers, "files": files, "bytes": size}


def reference_record(obs: dict) -> dict:
    return {k: obs[k] for k in ("exit", "error", "verdicts", "numbers", "files")}


def _close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCES["atol"] + TOLERANCES["rtol"] * abs(b)


def files_changed(obs: dict, ref: dict | None) -> int:
    """Run-dir files whose bytes differ from the reference (or are new or gone)."""
    if ref is None:
        return 0
    names = set(obs["files"]) | set(ref["files"])
    return sum(obs["files"].get(n) != ref["files"].get(n) for n in names)


def judge(op, obs: dict, ref: dict | None) -> tuple[str, str]:
    """Classify one operation: ("pass" | "known" | "fail", reason).

    ``known`` is a defect operation that failed exactly as recorded: it
    counts as a failed operation but not as a wrong result.  Without a
    reference (tiny smoke sizes) only the exit code is checked.
    """
    want_exit = 0 if op.expect == "valid" else 2
    if op.expect == "defect":
        if obs["exit"] == 2:
            return "pass", ""
        if ref is not None and obs["error"] is not None and obs["error"] == ref["error"]:
            return "known", f"raised {obs['error']} (recorded defect)"
        if ref is None and obs["error"] is not None:
            return "known", f"raised {obs['error']}"
        return "fail", f"exit {obs['exit']} / {obs['error']}, want exit 2"
    if obs["error"] is not None:
        return "fail", f"raised {obs['error']}"
    if ref is None:
        if obs["exit"] != want_exit:
            return "fail", f"exit {obs['exit']}, want {want_exit}"
        return "pass", ""
    if obs["exit"] != ref["exit"]:
        return "fail", f"exit {obs['exit']}, reference {ref['exit']}"
    if obs["verdicts"] != ref["verdicts"]:
        return "fail", f"verdicts {obs['verdicts']} != reference {ref['verdicts']}"
    if set(obs["numbers"]) != set(ref["numbers"]):
        return "fail", "checked quantities differ from the reference set"
    for name, want in ref["numbers"].items():
        if not _close(obs["numbers"][name], want):
            return "fail", f"{name} drifted beyond tolerance"
    return "pass", ""
