"""Property tests of the document round trip and the CLI exit-code contract.

Examples are derandomized, so every run draws the same inputs.
"""

import json
import os
import tempfile
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from chshlab import fileio
from chshlab.chsh import Report
from chshlab.cli import main
from chshlab.sampler import PAIR_LABELS, PairCounts, RunResult
from chshlab.sweep import PlanarSettings, SweepResult, SweepRow

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**12)

reports = st.builds(
    Report,
    s_value=st.none() | finite,
    max_s_over_states=finite,
    chsh_operator_norm=finite,
    comm_a_norm=finite,
    comm_b_norm=finite,
    identity_residual=finite,
    identity_sign=st.sampled_from((1, -1)),
    violates=st.booleans(),
)
run_results = st.builds(
    RunResult,
    counts=st.lists(st.builds(PairCounts, counts, counts, counts, counts), min_size=4, max_size=4),
    e_hat=st.lists(finite, min_size=4, max_size=4),
    s_hat=finite,
    s_stderr=finite,
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    shots_per_pair=st.integers(min_value=1, max_value=10**9),
)
sweep_rows = st.builds(
    SweepRow,
    phi=finite,
    settings=st.builds(PlanarSettings, finite, finite, finite, finite),
    comm_a_norm=finite,
    comm_b_norm=finite,
    max_s=finite,
    s_singlet=finite,
)


@st.composite
def sweep_results(draw):
    rows = draw(st.lists(sweep_rows, min_size=1, max_size=4))
    best = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
    return SweepResult(rows=rows, best=best, phi_steps=len(rows))


documents = st.one_of(
    reports.map(lambda r: ("analyze", "report", fileio.report_to_dict, r)),
    run_results.map(lambda r: ("simulate", "result", fileio.run_result_to_dict, r)),
    sweep_results().map(lambda r: ("sweep", "result", fileio.sweep_result_to_dict, r)),
)


@PROPERTY_SETTINGS
@given(documents)
def test_document_round_trip_is_bit_exact(case):
    command, key, to_dict, payload = case
    text = fileio.dumps(fileio.make_document(command, {}, key, to_dict(payload)))
    doc = json.loads(text)
    # floats serialize through repr, so equal text means bit-equal floats (-0.0 included)
    assert fileio.dumps(doc) == text
    back = doc[key]
    if command == "simulate":
        assert [c.pop("pair") for c in back["counts"]] == list(PAIR_LABELS)
    assert doc["command"] == command and back == asdict(payload)


huge_ints = st.integers(min_value=10**308, max_value=10**400)  # most overflow a float
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | huge_ints | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
numbers = st.integers(min_value=-2, max_value=2) | huge_ints | st.floats() | json_values


@st.composite
def with_one_cell_replaced(draw, cells, replacement):
    """A copy of nested lists `cells` with one leaf cell drawn from `replacement`."""
    cells = json.loads(json.dumps(cells))
    row = cells
    while isinstance(row[0], list) and isinstance(row[0][0], list):
        row = row[draw(st.integers(min_value=0, max_value=len(row) - 1))]
    row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(replacement)
    return cells


valid_settings = (
    st.builds(lambda t: {"angle": t}, st.floats(min_value=-10.0, max_value=10.0))
    | st.sampled_from(({"bloch": [0, 0, 1]}, {"bloch": [1.0, 0.0, 0.0]}, {"bloch": [0.6, 0, 0.8]}))
)
invalid_settings = (
    st.builds(lambda t: {"angle": t}, numbers)
    | with_one_cell_replaced([0.6, 0.0, 0.8], numbers).map(lambda v: {"bloch": v})
    | st.builds(lambda v: {"bloch": v}, st.lists(numbers, max_size=4))
    | json_values
)
psi_minus_cells = [[[0.0, 0.0]] * 4, [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [-0.5, 0.0], [0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 4]
state_specs = (
    st.sampled_from(fileio.STATE_NAMES + ("bogus", None))
    | with_one_cell_replaced(psi_minus_cells, st.lists(numbers, max_size=3) | numbers)
    .map(lambda m: {"matrix": m})
    | json_values
)


@st.composite
def scenario_docs(draw):
    """Mostly scenario-shaped objects, each part valid more often than not."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(json_values)
    doc = {}
    for name in ("a1", "a2", "b1", "b2"):
        broken = draw(st.integers(min_value=0, max_value=7)) == 0
        doc[name] = draw(invalid_settings if broken else valid_settings)
    if draw(st.booleans()):
        doc["state"] = draw(state_specs)
    return doc


@PROPERTY_SETTINGS
@given(scenario_docs())
def test_analyze_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        assert main(["analyze", path]) in (0, 1, 2)
