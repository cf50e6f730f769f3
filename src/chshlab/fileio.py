"""Scenario and report files.

Scenario files are JSON with explicit field names: one object per setting
(`{"bloch": [x, y, z]}` or `{"angle": t}`) plus an optional `state` that is
a name in `quantum.STATE_NAMES` (built by `quantum.named_state`), an explicit
4x4 density matrix as row-major `[re, im]` pairs, or null.  Every number in
a scenario must be a JSON number; strings and booleans are format errors.
Each number is checked once, here, and goes on as a plain float: a Bloch
vector as a tuple of three to `observable_from_bloch`, a matrix as its 32
parts in one `np.array(...).view(complex128)`.  Messages are formatted only on failure.
Settings are named by `chsh.SETTING_NAMES` and a run's pairs by `chsh.PAIR_LABELS`.
Report files are written, never read back here: they wrap the typed payload
together with the tool version and an echo of the inputs.  Payloads are
`vars` of each result, a shallow copy of its fields in `_fields` order
(`linalg.Record` writes them in that order) with only the nested lists and
records rewritten: the fields are already plain floats, ints, strings and
lists, so a deep copy of the whole record would only copy them again;
the sweep CSV reads `SWEEP_CSV_COLUMNS` off each row.  Floats serialize
through `repr`, so `json.loads` (or `csv`) recovers every double exactly.

`dumps` writes the bytes of `json.dumps(doc, indent=2, allow_nan=False)`
plus a newline, but not through `json`: with `indent`, `json` falls back to
its pure-Python encoder, which took about a third of a 19-step `sweep`
command.  `dumps` looks up each leaf's exact type in one table (strings
escape in C, floats and ints write their `repr`) and joins containers by
hand, writing leaves in place and recursing only into nested containers.
Every leaf of a document is an exact str, int, float, bool or None and every
key an exact str; NaN and +-inf raise ValueError and any other leaf or key,
subclasses of those types (`np.float64`) included, raises TypeError.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .chsh import PAIR_LABELS, SETTING_NAMES, Report, Scenario
from .quantum import STATE_NAMES, DensityMatrix, Observable, named_state, observable_from_bloch
from .sampler import RunResult
from .sweep import SweepResult, SweepRow, _planar_pauli

SWEEP_CSV_COLUMNS = ("phi", "comm_a_norm", "comm_b_norm", "max_s", "s_singlet")


class FormatError(Exception):
    """Malformed document structure (as opposed to invalid physics input)."""


def _number(value) -> float | None:
    """A JSON number as a float, or None: strings, booleans and integers beyond
    the float range are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return None


def observable_from_spec(spec, name: str) -> Observable:
    if not isinstance(spec, dict):
        raise FormatError(f"{name}: expected an object")
    if "bloch" in spec:
        vec = spec["bloch"]
        if not (isinstance(vec, (list, tuple)) and len(vec) == 3):
            raise FormatError(f"{name}.bloch: expected three numbers")
        n = tuple(map(_number, vec))  # three floats: checked here, once
        if None in n:
            raise FormatError(f"{name}.bloch: expected a number")
        try:
            return observable_from_bloch(n, label=name)
        except ValueError as exc:
            raise ValueError(f"{name}.bloch: {exc}") from None
    if "angle" in spec:
        t = _number(spec["angle"])
        if t is None:
            raise FormatError(f"{name}.angle: expected a number")
        if not math.isfinite(t):
            raise ValueError(f"{name}.angle: must be finite, got {t!r}")
        return Observable(tuple(_planar_pauli(t).tolist()), label=name)
    raise FormatError(f"{name}: expected a 'bloch' or 'angle' field")


def state_from_spec(spec) -> DensityMatrix | None:
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec not in STATE_NAMES:
            raise ValueError(f"state: unknown name {spec!r}; valid names: {', '.join(STATE_NAMES)}")
        return named_state(spec)
    if not (isinstance(spec, dict) and "matrix" in spec):
        raise FormatError("state: expected a name or a 'matrix' object")
    rows = spec["matrix"]
    if not (isinstance(rows, list) and len(rows) == 4):
        raise FormatError("state.matrix: expected 4 rows")
    parts = []  # re, im, re, im, ... row by row
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 4):
            raise FormatError(f"state.matrix[{i}]: expected 4 entries")
        for j, cell in enumerate(row):
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2):
                raise FormatError(f"state.matrix[{i}][{j}]: expected an [re, im] pair")
            real, imag = _number(cell[0]), _number(cell[1])
            if real is None or imag is None:
                raise FormatError(f"state.matrix[{i}][{j}]: expected a number")
            parts += (real, imag)
    try:
        return DensityMatrix(np.array(parts).view(np.complex128).reshape(4, 4))
    except ValueError as exc:
        raise ValueError(f"state.matrix: {exc}") from None


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise FormatError("scenario: expected a JSON object")
    obs = {}
    for name in SETTING_NAMES:
        if name not in doc:
            raise FormatError(f"scenario: missing field {name!r}")
        obs[name] = observable_from_spec(doc[name], name)
    return Scenario(**obs, state=state_from_spec(doc.get("state")))


def parse_scenario(text: str) -> tuple[Scenario, dict]:
    """Parse scenario JSON; returns the scenario plus the raw echo dict."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FormatError(f"invalid JSON: {exc}") from None
    return scenario_from_dict(doc), doc


def load_scenario(path) -> tuple[Scenario, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# report payloads

def report_to_dict(r: Report) -> dict:
    return dict(vars(r))


def run_result_to_dict(r: RunResult) -> dict:
    return {**vars(r), "counts": [{"pair": label, **vars(c)} for label, c in zip(PAIR_LABELS, r.counts)],
            "e_hat": list(r.e_hat)}


def _row_to_dict(row: SweepRow) -> dict:
    return {**vars(row), "settings": dict(vars(row.settings))}


def sweep_result_to_dict(r: SweepResult) -> dict:
    return {**vars(r), "rows": [_row_to_dict(row) for row in r.rows], "best": _row_to_dict(r.best)}


def sweep_result_to_csv(r: SweepResult) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    lines += (",".join(repr(getattr(row, c)) for c in SWEEP_CSV_COLUMNS) for row in r.rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# document wrapper

def make_document(command: str, input_echo: dict, payload_key: str, payload: dict) -> dict:
    return {
        "tool": "chshlab",
        "version": __version__,
        "command": command,
        "input": input_echo,
        payload_key: payload,
    }


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


_escape = json.encoder.encode_basestring_ascii
# exact leaf type -> its JSON text; bool is checked apart from int by type
_LEAVES = {
    str: _escape,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _unserializable(x) -> TypeError:
    return TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write(x, pad: str) -> str:
    """The dict, list or tuple `x` as `json.dumps(..., indent=2)` writes it at
    the depth where each line starts with `pad` ("\n" plus two spaces per
    level).  Leaves are written in place; only a nested container recurses."""
    inner = pad + "  "
    items = []
    if isinstance(x, dict):
        if not x:
            return "{}"
        for k, v in x.items():
            if type(k) is not str:
                raise _unserializable(k)
            leaf = _LEAVES.get(type(v))
            items.append(_escape(k) + ": " + (_write(v, inner) if leaf is None else leaf(v)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        for v in x:
            leaf = _LEAVES.get(type(v))
            items.append(_write(v, inner) if leaf is None else leaf(v))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise _unserializable(x)


def dumps(doc: dict) -> str:
    """The document's text: `json.dumps(doc, indent=2, allow_nan=False)`
    byte for byte, plus a trailing newline."""
    leaf = _LEAVES.get(type(doc))
    return (_write(doc, "\n") if leaf is None else leaf(doc)) + "\n"
