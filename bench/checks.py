"""Checks on the outputs of mweid CLI calls.

Each check raises ``CheckFailed`` with a reason; the benchmark counts a
CLI operation as failed when its exit code is not 0 or any check on its
outputs raises.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of a CLI call is wrong."""


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON that must not contain NaN or +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"invalid JSON: {err}") from err


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return float(value)


def check_exit(code, command: str) -> None:
    if code != 0:
        raise CheckFailed(f"mweid {command} exited with {code}")


def check_train_outputs(out_dir) -> dict:
    """summary.json and report.jsonl are strict JSON with finite losses,
    and the tag loss of the last epoch is below that of the first.

    Returns the parsed summary.
    """
    out_dir = Path(out_dir)
    summary = strict_json((out_dir / "summary.json").read_text(encoding="utf-8"))
    for key in ("final_tag_loss", "final_lang_loss"):
        _finite(summary.get(key), f"summary {key}")
    lines = (out_dir / "report.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != summary.get("epochs"):
        raise CheckFailed(f"report.jsonl has {len(lines)} epochs, summary says "
                          f"{summary.get('epochs')}")
    losses = []
    for number, line in enumerate(lines, start=1):
        record = strict_json(line)
        for key in ("tag_loss", "lang_loss"):
            _finite(record.get(key), f"report epoch {number} {key}")
        losses.append(record["tag_loss"])
    if len(losses) > 1 and not losses[-1] < losses[0]:
        raise CheckFailed(f"tag loss did not fall: epoch 1 {losses[0]}, "
                          f"epoch {len(losses)} {losses[-1]}")
    return summary


def check_checkpoint(path, load) -> None:
    """The checkpoint reloads through ``load`` and holds finite values."""
    try:
        model = load(path)
    except Exception as err:  # any failure to reload is a failed output
        raise CheckFailed(f"checkpoint {path} does not reload: {err!r}") from err
    for name, array in model.state_arrays().items():
        if not np.isfinite(array).all():
            raise CheckFailed(f"checkpoint {path}: parameter {name} is not finite")


def check_tagged(input_path, output_path) -> None:
    """The tagged file differs from its input only in column 11."""
    source = Path(input_path).read_text(encoding="utf-8").split("\n")
    tagged = Path(output_path).read_text(encoding="utf-8").split("\n")
    if len(source) != len(tagged):
        raise CheckFailed(f"{output_path}: {len(tagged)} lines, input has "
                          f"{len(source)}")
    for number, (a, b) in enumerate(zip(source, tagged), start=1):
        if a == b:
            continue
        cols_a, cols_b = a.split("\t"), b.split("\t")
        if a.startswith("#") or len(cols_a) != 11 or len(cols_b) != 11 \
                or cols_a[:10] != cols_b[:10]:
            raise CheckFailed(f"{output_path}:{number}: differs from the input "
                              f"outside column 11")


def check_eval_report(path) -> float:
    """The eval report is strict JSON with a positive global F1; returns it."""
    report = strict_json(Path(path).read_text(encoding="utf-8"))
    f1 = _finite(report.get("global", {}).get("f1"), "global f1")
    if not f1 > 0:
        raise CheckFailed(f"{path}: global F1 is {f1}, expected > 0")
    return f1
