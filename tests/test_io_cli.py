"""Tests for file formats, hashing, persistence, and the CLI."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hbayes import (
    Checkpoint,
    CheckpointError,
    Dataset,
    EventParseError,
    GammaPosterior,
    HyperParams,
    cross_validate,
    fit,
    hash_features,
    load_checkpoint,
    load_events,
    rank_top_k,
    sample_dataset,
    save_checkpoint,
    save_events,
)
from hbayes import cli, evaluation, io
from hbayes.generator import GroundTruth
from hbayes.inference import FitReport
from hbayes.io import load_candidates, save_ground_truth, save_json, save_trace_csv
from hbayes.linalg import spd_inverse
from hbayes.model import event_moments, update_xi

from helpers import assert_identical, check_columns, checkpoint_document, random_state

# A schema-1 checkpoint as the version-1 writer left it: ``hbayes generate
# --users 6 --brands 4 --styles 2 --events 300 --dim 3 --seed 1``, then
# ``hbayes train --styles 2 --max-iters 5``.
CHECKPOINT_V1 = Path(__file__).parent / "data" / "checkpoint_v1.json"
# CHECKPOINT_V1 loaded and saved once by the schema-2 writer.
CHECKPOINT_V1_RESAVED = Path(__file__).parent / "data" / "checkpoint_v1_resaved.json"


# ---------------------------------------------------------------------------
# event files
# ---------------------------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_events_empty_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EventParseError, match="empty dataset"):
        load_events(path)


def test_load_events_first_seen_encoding(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [
        json.dumps({"user": "a", "brand": "z", "x": [1.0, 2.0], "y": 1}),
        json.dumps({"user": "b", "brand": "z", "x": [0.0, 0.5], "y": 0}),
    ])
    data = load_events(path)
    assert data.num_users == 2 and data.num_brands == 1
    assert data.user_ids == ["a", "b"]
    assert data.events[0].user == 0 and data.events[1].user == 1
    assert data.feature_dim == 2


def test_load_events_ragged_features(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [
        json.dumps({"user": "a", "brand": "z", "x": [1.0, 2.0], "y": 1}),
        json.dumps({"user": "a", "brand": "z", "x": [1.0], "y": 1}),
    ])
    with pytest.raises(EventParseError, match="line 2"):
        load_events(path)


def test_load_events_non_binary_label(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [json.dumps({"user": "a", "brand": "z", "x": [1.0], "y": 2})])
    with pytest.raises(EventParseError, match="line 1.*0 or 1"):
        load_events(path)


def test_load_events_malformed_json(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [
        json.dumps({"user": "a", "brand": "z", "x": [1.0], "y": 1}),
        "{not json",
    ])
    with pytest.raises(EventParseError, match="line 2"):
        load_events(path)


def test_load_events_requires_string_ids(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [json.dumps({"user": 3, "brand": "z", "x": [1.0], "y": 1})])
    with pytest.raises(EventParseError, match="line 1.*strings"):
        load_events(path)


@pytest.mark.parametrize("loader", [load_events, load_candidates])
def test_loaders_reject_empty_features_with_line_number(tmp_path, loader):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [json.dumps({"user": "u0", "brand": "b0", "x": [], "y": 1})])
    with pytest.raises(EventParseError, match="line 1: x must not be empty"):
        loader(path)


def _event_line(x='[1.0, 2.0]', y="1"):
    """One event line with ``x`` and ``y`` spliced in as raw JSON text, so
    that non-standard tokens such as NaN, Infinity and 1e999 survive."""
    return f'{{"user": "u0", "brand": "b0", "x": {x}, "y": {y}}}'


# Each file holds one or more faults; the line checker checks each line in
# full before reading the next, so the first faulty line is the one named.
_FAULTY_FILES = {
    "nan_then_short_row": (["[1.0, 2.0]", "[NaN, 2.0]", "[1.0, 2.0]", "[1.0]"],
                           "line 2: x contains non-finite values"),
    "short_row_then_nan": (["[1.0, 2.0]", "[1.0]", "[1.0, 2.0]", "[NaN, 2.0]"],
                           "line 2: feature length 1 != 2"),
    "string_entry": (["[1.0, 2.0]", '["1.0", 2.0]'], "line 2: x must be an array of numbers"),
    "bool_entry": (["[1.0, 2.0]", "[true, 2.0]"], "line 2: x must be an array of numbers"),
    "overflowing_literal": (["[1.0, 2.0]", "[1e999, 2.0]"],
                            "line 2: x contains non-finite values"),
    "infinity": (["[1.0, 2.0]", "[1.0, -Infinity]"], "line 2: x contains non-finite values"),
    "nan_after_blank_lines": (["[1.0, 2.0]", "", "  ", "[NaN, 2.0]"],
                              "line 4: x contains non-finite values"),
    "infinity_after_blank_lines": (["", "[1.0, 2.0]", "", "[2.0, Infinity]", "[1.0, 2.0]"],
                                   "line 4: x contains non-finite values"),
    "nan_and_short_row_on_one_line": (["[1.0, 2.0]", "[NaN]"],
                                      "line 2: x contains non-finite values"),
    "nan_then_invalid_json": (["[NaN, 2.0]", None], "line 1: x contains non-finite values"),
    "string_then_nan": (['[1.0, "a"]', "[NaN, 2.0]"], "line 1: x must be an array of numbers"),
    "integer_past_float_range": (["[1.0, 2.0]", "[1" + "0" * 400 + ", 2.0]"],
                                 "line 2: x contains non-finite values"),
}


@pytest.mark.parametrize("loader", [load_events, load_candidates])
@pytest.mark.parametrize("case", sorted(_FAULTY_FILES))
def test_loaders_name_the_first_faulty_line(tmp_path, loader, case):
    rows, message = _FAULTY_FILES[case]
    path = tmp_path / "events.jsonl"
    _write_lines(path, ["{not json" if x is None else _event_line(x) if x.strip() else x
                        for x in rows])
    with pytest.raises(EventParseError) as err:
        loader(path)
    assert str(err.value) == message


@pytest.mark.parametrize("loader", [load_events, load_candidates])
@pytest.mark.parametrize("line", ["[1.0, 2.0]", "3", "null", '"u0"'])
def test_loaders_reject_a_line_that_is_not_an_object(tmp_path, loader, line):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [_event_line(), line])
    with pytest.raises(EventParseError, match="^line 2: expected a JSON object$"):
        loader(path)


def test_loaders_check_fields_before_finiteness(tmp_path):
    """A line with a NaN in x and no y: a missing label is the earlier check
    for events, and candidates do not need one."""
    path = tmp_path / "events.jsonl"
    _write_lines(path, ['{"user": "u0", "brand": "b0", "x": [NaN, 1.0]}'])
    with pytest.raises(EventParseError, match="^line 1: missing field 'y'$"):
        load_events(path)
    with pytest.raises(EventParseError, match="^line 1: x contains non-finite values$"):
        load_candidates(path)


def test_load_events_label_fault_after_nan_names_the_nan(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [_event_line("[NaN, 1.0]", y="2"), _event_line(y="2")])
    with pytest.raises(EventParseError, match="^line 1: x contains non-finite values$"):
        load_events(path)


def test_loaders_return_columns(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [_event_line("[1, 2.5]"), "", _event_line("[-0.0, 3]", y="0")])
    data = load_events(path)
    assert data.X.dtype == float and data.X.shape == (2, 2)
    np.testing.assert_array_equal(data.X, [[1.0, 2.5], [-0.0, 3.0]])
    np.testing.assert_array_equal(data.y, [1.0, 0.0])
    cands = load_candidates(path)
    assert [(i, b, u) for i, _, b, u in cands] == [(0, "b0", "u0"), (1, "b0", "u0")]
    assert cands[0][1].base is cands[1][1].base is not None  # rows of one array
    np.testing.assert_array_equal(np.stack([x for _, x, _, _ in cands]), data.X)


def test_load_events_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps({"user": "a", "brand": "z", "x": [1.0], "y": 1}) + "\n\n",
        encoding="utf-8")
    assert len(load_events(path)) == 1


def test_dictionary_encoding_stable(tmp_path):
    path = tmp_path / "events.jsonl"
    rng = np.random.default_rng(0)
    lines = [json.dumps({"user": f"u{rng.integers(5)}", "brand": f"b{rng.integers(4)}",
                         "x": [float(v) for v in rng.standard_normal(2)],
                         "y": int(rng.integers(2))}) for _ in range(40)]
    _write_lines(path, lines)
    d1 = load_events(path)
    d2 = load_events(path)
    assert d1.user_ids == d2.user_ids
    assert d1.brand_ids == d2.brand_ids


def test_save_load_round_trip_exact(tmp_path):
    path = tmp_path / "events.jsonl"
    rng = np.random.default_rng(1)
    lines = [json.dumps({"user": f"user-{rng.integers(4)}",
                         "brand": f"brand-{rng.integers(3)}",
                         "x": [float(v) for v in rng.standard_normal(3)],
                         "y": int(rng.integers(2))}) for _ in range(30)]
    _write_lines(path, lines)
    data = load_events(path)
    out = tmp_path / "resaved.jsonl"
    save_events(data, out)
    again = load_events(out)
    assert again.user_ids == data.user_ids
    assert again.brand_ids == data.brand_ids
    np.testing.assert_array_equal(again.X, data.X)
    np.testing.assert_array_equal(again.y, data.y)
    np.testing.assert_array_equal(again.users, data.users)
    np.testing.assert_array_equal(again.brands, data.brands)


def test_generator_round_trip_is_isomorphic(tmp_path):
    # first-seen re-encoding may relabel entities; the event content and the
    # grouping structure must survive exactly
    hp = HyperParams(num_styles=2, feature_dim=3)
    data, _ = sample_dataset(hp, num_users=4, num_brands=3, num_events=200, seed=5)
    path = tmp_path / "gen.jsonl"
    save_events(data, path)
    loaded = load_events(path)
    assert len(loaded) == len(data)
    assert loaded.num_users == data.num_users
    assert loaded.num_brands == data.num_brands
    np.testing.assert_array_equal(loaded.X, data.X)
    np.testing.assert_array_equal(loaded.y, data.y)
    # relabeling is a consistent bijection
    for orig, new in ((data.users, loaded.users), (data.brands, loaded.brands)):
        forward = {}
        for o, m in zip(orig, new):
            assert forward.setdefault(int(o), int(m)) == int(m)
        assert len(set(forward.values())) == len(forward)


# Finite floats, with the edges of the format drawn often: both zeros, the
# smallest subnormal, the largest finite value and their negatives.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_FEATURE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
# Ids from quotes, backslashes, control and non-ASCII characters, plus any other.
_ID = st.text(st.sampled_from('"\\\n\x00 aé\u2028€\U0001F600') | st.characters(codec="utf-8"),
              max_size=5)


@st.composite
def _event_columns(draw):
    """(X, users, brands, y, user_ids, brand_ids), every entity with an event."""
    user_ids = draw(st.lists(_ID, min_size=1, max_size=4, unique=True))
    brand_ids = draw(st.lists(_ID, min_size=1, max_size=4, unique=True))
    U, B = len(user_ids), len(brand_ids)
    n = max(U, B) + draw(st.integers(0, 6))
    users = list(range(U)) + draw(st.lists(st.integers(0, U - 1), min_size=n - U, max_size=n - U))
    brands = list(range(B)) + draw(st.lists(st.integers(0, B - 1), min_size=n - B,
                                            max_size=n - B))
    order = draw(st.permutations(range(n)))
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(_FEATURE, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return (X, [users[t] for t in order], [brands[t] for t in order], y, user_ids, brand_ids)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(columns=_event_columns())
def test_save_load_events_round_trip_property(tmp_path_factory, columns):
    """Every x comes back bit for bit (the sign of zero too), with its label
    and its ids; loading re-encodes entities in first-seen order, so the ids
    are compared, not the indices."""
    X, users, brands, y, user_ids, brand_ids = columns
    data = Dataset.from_arrays(X, users, brands, y, len(user_ids), len(brand_ids),
                               user_ids=user_ids, brand_ids=brand_ids)
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    save_events(data, path)
    again = load_events(path)
    np.testing.assert_array_equal(again.X.view(np.uint64), X.view(np.uint64))
    np.testing.assert_array_equal(again.y, y)
    assert [again.user_ids[u] for u in again.users] == [user_ids[u] for u in users]
    assert [again.brand_ids[b] for b in again.brands] == [brand_ids[b] for b in brands]


# Ids that hold the text the fast pass screens for booleans.
_SCREENED_ID = st.sampled_from(["true", "false", "untrue", "x: [true]"])
# Lines str.strip() blanks; "\x0b" and "\x0c" are no JSON whitespace.
_BLANK = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", " \x0b\x0c\t"])


@st.composite
def _event_text(draw, require_label):
    """(bytes of a valid event file, its lines as objects): indented lines,
    CRLF and lone-CR endings, labels 1.0, int features, ids that contain
    "true" or "false", blank lines of any whitespace and sometimes no final
    newline."""
    d = draw(st.integers(1, 3))
    row = st.lists(_FEATURE | st.integers(-2**70, 2**70), min_size=d, max_size=d)
    if d == 2:
        row = row | st.just([1e308, 1e308])  # finite, but the sum overflows
    labels = st.sampled_from([0, 1, 0.0, 1.0, -0.0])
    lines, objs = [], []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lines.append(draw(_BLANK))
            continue
        obj = {"user": draw(_ID | _SCREENED_ID), "brand": draw(_ID | _SCREENED_ID),
               "x": draw(row)}
        label = draw(labels | st.sampled_from([None, "missing"])) if not require_label \
            else draw(labels)
        if label != "missing":
            obj["y"] = label
        objs.append(obj)
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()),
                          indent=draw(st.sampled_from([None, None, 1])))
        lines.append(draw(st.sampled_from(["", " ", "\t "])) + text.replace("\n", " ")
                     + draw(st.sampled_from(["", " ", "\t"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    return text.encode("utf-8"), objs


def _columns_bytes(columns):
    users, brands, X, labels = columns
    return users, brands, X.shape, X.tobytes(), [(type(v), v) for v in labels]


@pytest.mark.parametrize("require_label", [True, False])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fast_pass_reads_valid_files_as_the_line_checker_does(tmp_path_factory, require_label,
                                                              data):
    """On every valid file the reader returns the line-by-line checker's
    columns byte for byte, and so do both loaders."""
    raw, objs = data.draw(_event_text(require_label))
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    path.write_bytes(raw)
    checked = check_columns(path, require_label)
    assert checked[0] == [o["user"] for o in objs]
    assert _columns_bytes(io._read_columns(path, require_label)) == _columns_bytes(checked)
    if not objs:
        return
    users, brands, X, labels = checked
    if require_label:
        events = load_events(path)
        assert events.X.tobytes() == X.tobytes()
        assert events.y.tobytes() == np.asarray(labels, dtype=events.y.dtype).tobytes()
        assert [events.user_ids[u] for u in events.users] == users
        assert [events.brand_ids[b] for b in events.brands] == brands
    cands = load_candidates(path)
    assert [(i, x.tobytes(), b, u) for i, x, b, u in cands] == \
        [(i, x.tobytes(), b, u) for i, (x, b, u) in enumerate(zip(X, brands, users))]


# File texts with one or more faults each; the per-line pass hands each
# faulty line to the line checker, and the first fault is named.  "\udcff"
# stands for the byte 0xff, which is not UTF-8.
_ROW = '{"user": "u0", "brand": "b0", "x": [1.0, 2.0], "y": 1}'
_FAULTY_TEXTS = {
    "empty_x_then_full_rows": ('{"user": "u0", "brand": "b0", "x": [], "y": 1}\n'
                               + f"{_ROW}\n{_ROW}\n", "line 1: x must not be empty"),
    "integers_past_float_range_summing_to_zero": (
        f'{_ROW}\n{{"user": "u0", "brand": "b0", "x": [1{"0" * 400}, -1{"0" * 400}], "y": 1}}\n',
        "line 2: x contains non-finite values"),
    "true_label": (f'{_ROW}\n{{"user": "u0", "brand": "b0", "x": [1.0, 2.0], "y": true}}\n',
                   "line 2: label y must be 0 or 1, got True"),
    "vertical_tab_after_object": (f"{_ROW}\n{_ROW}\x0b\n",
                                  "line 2: invalid JSON (Extra data)"),
    "byte_order_mark": (f"\ufeff{_ROW}\n{_ROW}\n",
                        "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    "two_objects_on_one_line": (f"{_ROW}\n{_ROW} {_ROW}\n", "line 2: invalid JSON (Extra data)"),
    "object_split_over_two_lines": (f'{_ROW}\n{{"user": "u0", "brand": "b0",\n'
                                    '"x": [1.0, 2.0], "y": 1}\n',
                                    "line 2: invalid JSON (Expecting property name enclosed "
                                    "in double quotes)"),
    "nested_list_in_x": (f'{_ROW}\n{{"user": "u0", "brand": "b0", "x": [1.0, [2.0]], "y": 1}}\n',
                         "line 2: x must be an array of numbers"),
    "number_brand": (f'{_ROW}\n{{"user": "u0", "brand": 0, "x": [1.0, 2.0], "y": 1}}\n',
                     "line 2: user and brand must be strings"),
    "integer_past_the_digit_limit": (
        f'{_ROW}\n{{"user": "u0", "brand": "b0", "x": [1{"0" * 5000}, 2.0], "y": 1}}\n',
        "line 2: invalid JSON (an integer has more than 4300 digits)"),
    "byte_that_is_not_utf8_in_an_id": (f'{_ROW}\n{{"user": "u\udcff", "brand": "b0", '
                                       '"x": [1.0, 2.0], "y": 1}\n',
                                       "line 2: invalid UTF-8 (byte 0xff)"),
    "byte_that_is_not_utf8_in_an_ignored_field": (f'{_ROW[:-1]}, "note": "\udcff"}}\n',
                                                  "line 1: invalid UTF-8 (byte 0xff)"),
    "nan_then_a_byte_that_is_not_utf8": (
        f'{{"user": "u0", "brand": "b0", "x": [NaN, 2.0], "y": 1}}\n\n\udcff{_ROW}\n',
        "line 1: x contains non-finite values"),
    "nesting_past_the_recursion_limit": (f'{_ROW}\n{"[" * 100_000}\n{_ROW}\n',
                                         "line 2: invalid JSON (nested too deeply)"),
    "nan_then_nesting_past_the_recursion_limit": (
        f'{{"user": "u0", "brand": "b0", "x": [NaN, 2.0], "y": 1}}\n{{"x": {"[" * 100_000}\n',
        "line 1: x contains non-finite values"),
    "byte_that_is_not_utf8_then_nan": (
        f'\n{_ROW}\n\udcfe\n{{"user": "u0", "brand": "b0", "x": [NaN, 2.0], "y": 1}}\n',
        "line 3: invalid UTF-8 (byte 0xfe)"),
}


@pytest.mark.parametrize("loader", [load_events, load_candidates])
@pytest.mark.parametrize("case", sorted(_FAULTY_TEXTS))
def test_loaders_name_the_first_fault_the_fast_pass_hands_over(tmp_path, loader, case):
    text, message = _FAULTY_TEXTS[case]
    path = tmp_path / "events.jsonl"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(EventParseError) as err:
        loader(path)
    assert str(err.value) == message
    try:
        path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return  # the line checker reads only UTF-8
    with pytest.raises(EventParseError) as want:
        check_columns(path, loader is load_events)
    assert str(want.value) == message


@pytest.mark.parametrize("line, message", [
    ('{"user": "u0", "brand": "b0", "x": [1.0, 2.0]}', "line 2: missing field 'y'"),
    ('{"user": "u0", "brand": "b0", "x": [1.0, 2.0], "y": null}',
     "line 2: label y must be 0 or 1, got None"),
])
def test_events_hand_over_a_missing_or_null_label_that_candidates_take(tmp_path, line,
                                                                       message):
    path = tmp_path / "events.jsonl"
    _write_lines(path, [_ROW, line])
    for read in (load_events, lambda path: check_columns(path, True)):
        with pytest.raises(EventParseError) as err:
            read(path)
        assert str(err.value) == message
    assert len(load_candidates(path)) == len(check_columns(path, False)[0]) == 2


def _row(user='"u0"', brand='"b0"', x="[1.0, 2.0]", y=', "y": 1'):
    """One event line from raw JSON text; ``y`` is the text after x."""
    return f'{{"user": {user}, "brand": {brand}, "x": {x}{y}}}'


# Lines that load_candidates takes (load_events refuses the two without a
# label), and lines that fail one check or more.
_VALID_LINES = [_row(), _row('"u1"', '"true"', "[-0.0, 3]", ', "y": 0.0'), " \t" + _row(),
                _row() + " \t", _row(y=""), _row(y=', "y": null'), "", " ", "\t", "\x0b",
                "\x0c"]
_FAULTY_LINES = [
    _row(x="[NaN, 2.0]"), _row(x="[1.0, Infinity]"), _row(x="[1e999, 2.0]"),
    _row(x=f"[1{'0' * 400}, 2.0]"), _row(x="[1.0]"), _row(x="[1.0, 2.0, 3.0]"), _row(x="[]"),
    _row(x="[true, 2.0]"), _row(x="[[1.0], 2.0]"), _row(x='["1", 2.0]'), _row(x="null"),
    _row(user="3"), _row(brand="null"), _row(user='{"a": true}'), _row(brand='["b0"]'),
    _row(y=', "y": 2'), _row(y=', "y": true'), _row(y=', "y": [1]'), _row(y=', "y": false'),
    _row(y=', "y": "1"'), _row(x="[NaN]", y=', "y": 2'), _row(user="1", x="[NaN, 2.0]"),
    "{not json", _row()[:-1], _row() + " " + _row(), "\x0b" + _row(), _row() + "\x0c",
    "[1.0, 2.0]", "3", "null", '"u0"',
]


@pytest.mark.parametrize("loader", [load_events, load_candidates])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(st.sampled_from(_VALID_LINES) | st.sampled_from(_FAULTY_LINES),
                      max_size=8),
       ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_loaders_read_faulty_files_as_the_line_checker_does(tmp_path_factory, loader, lines,
                                                           ending):
    """Files that mix valid lines with faulty ones: the reader returns the
    line-by-line checker's columns byte for byte, or the loader raises its
    message, whether the first fault is one checked per line or over the
    whole file."""
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
    require_label = loader is load_events
    try:
        want = check_columns(path, require_label)
    except EventParseError as err:
        with pytest.raises(EventParseError) as got:
            loader(path)
        assert str(got.value) == str(err)
    else:
        assert _columns_bytes(io._read_columns(path, require_label)) == _columns_bytes(want)


def test_load_candidates_label_optional(tmp_path):
    path = tmp_path / "cands.jsonl"
    _write_lines(path, [
        json.dumps({"user": "a", "brand": "z", "x": [1.0, 0.0]}),
        json.dumps({"user": "a", "brand": "w", "x": [0.0, 1.0], "y": 1}),
    ])
    cands = load_candidates(path)
    assert [c[0] for c in cands] == [0, 1]
    assert cands[0][2] == "z"
    empty = tmp_path / "cands_empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(EventParseError):
        load_candidates(empty)


# ---------------------------------------------------------------------------
# feature hashing
# ---------------------------------------------------------------------------


def test_hash_features_empty_tokens():
    np.testing.assert_array_equal(hash_features([], 8), np.zeros(8))


def test_hash_features_order_invariant():
    tokens = [("color", "red"), ("size", "L"), ("color", "blue")]
    v1 = hash_features(tokens, 16)
    v2 = hash_features(list(reversed(tokens)), 16)
    np.testing.assert_array_equal(v1, v2)


def test_hash_features_deterministic_values():
    vec = hash_features([("color", "red")], 8)
    assert np.sum(np.abs(vec)) == 1.0
    again = hash_features([("color", "red")], 8)
    np.testing.assert_array_equal(vec, again)
    # distinct tokens accumulate independently
    both = hash_features([("color", "red"), ("size", "L")], 8)
    other = hash_features([("size", "L")], 8)
    np.testing.assert_array_equal(both, vec + other)


def test_hash_features_separator_prevents_collisions():
    a = hash_features([("a", "b=c")], 64)
    b = hash_features([("a=b", "c")], 64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("width", [0, 2.5, 2.0, True])
def test_hash_features_rejects_bad_width(width):
    with pytest.raises(ValueError, match="width must be an integer >= 1"):
        hash_features([("a", "b")], width)


def test_hash_features_accepts_a_numpy_integer_width():
    np.testing.assert_array_equal(hash_features([("a", "b")], np.int64(3)),
                                  hash_features([("a", "b")], 3))


def test_hash_features_bucket_loads_uniform():
    width = 50
    counts = np.zeros(width)
    for i in range(10_000):
        vec = hash_features([("token", str(i))], width)
        counts[np.nonzero(vec)[0][0]] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _fitted(tmp_path):
    hp = HyperParams(num_styles=2, feature_dim=3, max_iters=15)
    data, _ = sample_dataset(hp, num_users=4, num_brands=3, num_events=150, seed=2)
    events_path = tmp_path / "train.jsonl"
    save_events(data, events_path)
    data = load_events(events_path)
    state, report = fit(data, hp, seed=0)
    return Checkpoint(hp, state, report, data.user_ids, data.brand_ids)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    p1 = tmp_path / "model.json"
    p2 = tmp_path / "model2.json"
    save_checkpoint(_fitted(tmp_path), p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert_identical(p1.read_bytes(), p2.read_bytes())


# The state fields of each entity family whose rows are its entities.
_FAMILY_FIELDS = {"users": ("user_mean", "user_cov"),
                  "brands": ("brand_mean", "brand_cov", "resp")}


def _without(ckpt, family):
    """``ckpt`` with no entities of ``family`` and no id lists."""
    state = replace(ckpt.state, **{name: getattr(ckpt.state, name)[:0]
                                   for name in _FAMILY_FIELDS[family]})
    return Checkpoint(ckpt.hyperparams, state, ckpt.fit_report)


@pytest.mark.parametrize("family", sorted(_FAMILY_FIELDS), ids=lambda family: f"no-{family}")
def test_checkpoint_without_a_family_round_trips(tmp_path, family):
    """Saving, loading and saving a state with no users or no brands gives
    the same bytes; its empty arrays load in their shapes, resp as (0, S)."""
    ckpt = _without(_fitted(tmp_path), family)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert_identical(p1.read_bytes(), p2.read_bytes())
    for name in _FAMILY_FIELDS[family]:
        assert getattr(loaded.state, name).shape == getattr(ckpt.state, name).shape


@pytest.mark.parametrize("brands, resp, shape", [(0, [[]], (0, 2)), (0, [[0.5, 0.5]], (0, 2)),
                                                 (3, [], (3, 2))],
                         ids=["no-brands-empty-row", "no-brands-one-row", "brands-no-rows"])
def test_checkpoint_rejects_resp_of_another_shape(tmp_path, brands, resp, shape):
    ckpt = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(ckpt if brands else _without(ckpt, "brands"), path)
    doc = json.loads(path.read_text())
    doc["state"]["resp"] = resp
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"invariant violation: resp must have shape {shape}"


def test_checkpoint_rejects_invalid_gamma(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    doc["state"]["prec_u"]["rate"] = -1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="invariant"):
        load_checkpoint(path)


# Checkpoint entries (key paths) that json.loads reads as a float infinity
# when the file says Infinity.
_NON_FINITE_ENTRIES = [("state", "prec_b", "rate"), ("state", "prec_u", "shape"),
                       ("state", "theta_gamma", 0), ("state", "styles", 0, "iso_var"),
                       ("hyperparams", "alpha0"), ("hyperparams", "gamma0", 1)]


def _write_with(src, dst, keys, value):
    obj = doc = json.loads(src.read_text())
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value
    dst.write_text(json.dumps(doc))  # allow_nan: writes Infinity


@pytest.mark.parametrize("keys", _NON_FINITE_ENTRIES, ids=lambda keys: ".".join(map(str, keys)))
def test_checkpoint_rejects_infinity(tmp_path, keys):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    _write_with(path, path, keys, float("inf"))
    with pytest.raises(CheckpointError, match="finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("keys", _NON_FINITE_ENTRIES + [("state", "users", 0, "mean", 1)],
                         ids=lambda keys: ".".join(map(str, keys)))
def test_checkpoint_rejects_integers_past_float_range(tmp_path, keys):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    _write_with(path, path, keys, 10 ** 400)
    with pytest.raises(CheckpointError, match="int too large to convert to float"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [True, "0.01"], ids=["bool", "string"])
def test_checkpoint_rejects_hyperparams_that_are_not_numbers(tmp_path, value):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    _write_with(path, path, ("hyperparams", "alpha0"), value)
    with pytest.raises(CheckpointError, match="alpha0 must be a real number"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    for version in (99, 0, 3, True, 1.0, "2"):  # only the integers 1 and 2 are readable
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema_version"):
            load_checkpoint(path)


def _with_huge_num_users(path):
    """Rewrite the checkpoint at ``path`` with a 5001-digit ``num_users``,
    which json.dumps itself cannot write."""
    text = path.read_text()
    assert text.count('"num_users":4,') == 1
    path.write_text(text.replace('"num_users":4,', f'"num_users":{"4" * 5001},'))


def test_checkpoint_rejects_an_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    _with_huge_num_users(path)
    with pytest.raises(CheckpointError,
                       match="^invalid JSON: an integer has more than 4300 digits$"):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_json(tmp_path):
    path = tmp_path / "model.json"
    for text, message in (("{broken", "invalid JSON"), ("[]", "must be a JSON object"),
                          ('{"a": "\udcff"}', "^invalid UTF-8: byte 0xff at offset 7$"),
                          ('{"a": ' + "[" * 100_000, "^invalid JSON: nested too deeply$")):
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


@pytest.mark.parametrize("family, index, spread, value", [
    ("users", 0, "iso_var", 0.5), ("brands", 1, "iso_var", 0.5),
    ("styles", 0, "cov", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("w", None, "cov", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
])
def test_checkpoint_rejects_wrong_covariance_form(tmp_path, family, index, spread, value):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    factor = doc["state"][family] if index is None else doc["state"][family][index]
    factor.pop("cov", None)
    factor.pop("iso_var", None)
    factor[spread] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    doc["num_users"] = 17
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="dimensions"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["user_ids", "brand_ids", "hyperparams"])
def test_checkpoint_dimensions_checked_on_save_and_load(tmp_path, field):
    """An id list of the wrong length, or hyper-parameters that disagree
    with the state, is refused by save, which then writes nothing, and by
    load, so save cannot write a file that load rejects."""
    ckpt = _fitted(tmp_path)  # 4 users, 3 brands, d = 3
    wrong = {"user_ids": ckpt.user_ids[:1], "brand_ids": ckpt.brand_ids + ["w"],
             "hyperparams": HyperParams(num_styles=2, feature_dim=4)}[field]
    path = tmp_path / "model.json"
    with pytest.raises(CheckpointError, match=field):
        save_checkpoint(replace(ckpt, **{field: wrong}), path)
    assert not path.exists()

    save_checkpoint(ckpt, path)
    doc = json.loads(path.read_text())
    if field == "hyperparams":
        doc["hyperparams"]["feature_dim"] = wrong.feature_dim
    else:
        doc[field] = wrong
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


# The message load_checkpoint gives for each state that _broken builds.
_BROKEN_STATES = {"asymmetric-cov": "covariance must be symmetric",
                  "resp-row-sum": "responsibility rows must sum to 1",
                  "gamma-rate": "Gamma shape and rate must be positive and finite"}


def _broken(state, case):
    """A copy of ``state`` that breaks one invariant load_checkpoint checks."""
    state = state.copy()
    if case == "asymmetric-cov":
        state.user_cov[0, 0, 1] += 1.0
    elif case == "resp-row-sum":
        state.resp[0] = [0.7, 0.7]
    else:
        state.prec_u = GammaPosterior(state.prec_u.shape, 0.0)
    return state


@pytest.mark.parametrize("case", _BROKEN_STATES)
def test_checkpoint_save_refuses_invalid_state(tmp_path, case):
    """A state that load would refuse is refused by save, which then writes nothing."""
    ckpt = _fitted(tmp_path)
    path = tmp_path / "model.json"
    with pytest.raises(CheckpointError,
                       match=f"^invariant violation: {_BROKEN_STATES[case]}$"):
        save_checkpoint(replace(ckpt, state=_broken(ckpt.state, case)), path)
    assert not path.exists()


# One id list per (field, how it is wrong) for the 4-user, 3-brand checkpoint
# of _fitted: a repeated id, and an id that is not a string.
_BAD_IDS = {"brand-repeated": ("brand_ids", ["b0", "b0", "b1"]),
            "user-integer": ("user_ids", ["u0", "u1", "u2", 7])}


@pytest.mark.parametrize("case", _BAD_IDS)
def test_checkpoint_ids_must_be_distinct_strings(tmp_path, case):
    field, wrong = _BAD_IDS[case]
    ckpt = _fitted(tmp_path)
    path = tmp_path / "model.json"
    with pytest.raises(CheckpointError, match=field):
        save_checkpoint(replace(ckpt, **{field: wrong}), path)
    assert not path.exists()

    save_checkpoint(ckpt, path)
    doc = json.loads(path.read_text())
    doc[field] = wrong
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)


def test_checkpoint_v2_stores_no_xi(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2 and "xi" not in doc["state"]
    assert load_checkpoint(path).schema_version == 2


def test_checkpoint_v1_fixture_loads_with_xi(tmp_path):
    doc = json.loads(CHECKPOINT_V1.read_text())
    ckpt = load_checkpoint(CHECKPOINT_V1)
    assert ckpt.schema_version == 1 and len(doc["state"]["xi"]) == 300

    v2 = tmp_path / "v2.json"
    save_checkpoint(ckpt, v2)
    del doc["state"]["xi"]
    doc["schema_version"] = 2
    assert json.loads(v2.read_text()) == doc
    restored = load_checkpoint(v2)
    rng = np.random.default_rng(5)
    # Known brands 0-3 and cold ones; user 0 known, 9 unseen.
    cands = [(i, rng.standard_normal(3), int(rng.integers(-1, 6))) for i in range(20)]
    for user in (0, 9):
        assert (rank_top_k(user, cands, restored.state, k=20)
                == rank_top_k(user, cands, ckpt.state, k=20))
    again = tmp_path / "again.json"
    save_checkpoint(restored, again)
    assert_identical(again.read_bytes(), v2.read_bytes())


@pytest.mark.parametrize("value, message", [(-0.5, "non-negative"), (float("inf"), "finite")])
def test_checkpoint_v1_xi_still_checked(tmp_path, value, message):
    doc = json.loads(CHECKPOINT_V1.read_text())
    doc["state"]["xi"][7] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # allow_nan: writes Infinity
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_v1_fixture_resaves_to_committed_bytes(tmp_path):
    path = tmp_path / "v1_resaved.json"
    save_checkpoint(load_checkpoint(CHECKPOINT_V1), path)
    assert_identical(path.read_bytes(), CHECKPOINT_V1_RESAVED.read_bytes())


# Entries load must refuse when they are missing or null: every
# hyper-parameter (never replaced by the constructor's default), each Gamma
# factor and its fields.
_REQUIRED_ENTRIES = [
    ("hyperparams",),
    *(("hyperparams", key) for key in ("num_styles", "feature_dim", "gamma0", "alpha0",
                                       "beta0", "max_iters", "rel_tol")),
    *(("state", key) for key in ("prec_u", "prec_b", "prec_s", "prec_w")),
    ("state", "prec_w", "shape"), ("state", "prec_u", "rate"),
]


@pytest.mark.parametrize("null", [False, True], ids=["missing", "null"])
@pytest.mark.parametrize("keys", _REQUIRED_ENTRIES, ids=lambda keys: ".".join(keys))
def test_checkpoint_rejects_missing_or_null_entries(tmp_path, keys, null):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    obj = doc = json.loads(path.read_text())
    for key in keys[:-1]:
        obj = obj[key]
    if null:
        obj[keys[-1]] = None
    else:
        del obj[keys[-1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# fit_report entries that load must refuse, as (key, value): the trace is a
# list of finite numbers (json.loads reads NaN and Infinity tokens), the
# sweep count is the trace's length, and converged is a boolean.
_BAD_FIT_REPORTS = {
    "trace-null-entry": ("elbo_trace", [None]),
    "trace-string": ("elbo_trace", "abc"),
    "trace-bool-entry": ("elbo_trace", [True]),
    "trace-nan": ("elbo_trace", [float("nan")]),
    "trace-infinity": ("elbo_trace", [-1.0, float("inf")]),
    "trace-huge-integer": ("elbo_trace", [10 ** 400]),
    "iterations-string": ("iterations_run", "x"),
    "iterations-float": ("iterations_run", None),  # the trace length as a float
    "iterations-bool": ("iterations_run", True),
    "iterations-off-by-one": ("iterations_run", 1),  # added to the trace length
    "converged-string": ("converged", "yes"),
    "converged-integer": ("converged", 1),
}


@pytest.mark.parametrize("case", _BAD_FIT_REPORTS)
def test_checkpoint_rejects_malformed_fit_report(tmp_path, case):
    key, value = _BAD_FIT_REPORTS[case]
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    report = doc["fit_report"]
    if case == "iterations-float":
        value = float(len(report["elbo_trace"]))
    elif case == "iterations-off-by-one":
        value += len(report["elbo_trace"])
    report[key] = value
    path.write_text(json.dumps(doc))  # allow_nan: writes NaN and Infinity
    with pytest.raises(CheckpointError, match=f"fit_report.{key}"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("max_iters", 5.5), ("num_styles", 2.0),
                                        ("feature_dim", True)])
def test_checkpoint_rejects_non_integer_counts(tmp_path, key, value):
    path = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), path)
    doc = json.loads(path.read_text())
    doc["hyperparams"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"{key} must be an integer"):
        load_checkpoint(path)


def test_ground_truth_sidecar_bytes(tmp_path):
    truth = GroundTruth(style_vectors=np.array([[0.5, -1.25], [2.0, 0.1]]),
                        brand_vectors=np.array([[1.0, 3e-17], [-0.0, 7.5], [1e300, -2.5]]),
                        user_vectors=np.array([[0.25, 0.75]]),
                        style_assignments=np.array([1, 0, 1]),
                        theta=np.array([0.25, 0.75]), w=np.array([-1.5, 0.3]))
    path = tmp_path / "truth.json"
    save_ground_truth(truth, (4, 25.0, np.float64(2.0), 0.5), 1, path)
    assert path.read_text() == (
        '{"brand_vectors":[[1.0,3e-17],[-0.0,7.5],[1e+300,-2.5]],"feature_scale":1.0,'
        '"style_assignments":[1,0,1],"style_vectors":[[0.5,-1.25],[2.0,0.1]],'
        '"theta":[0.25,0.75],"true_precisions":{"brand":25.0,"style":2.0,"user":4.0,'
        '"w":0.5},"user_vectors":[[0.25,0.75]],"w":[-1.5,0.3]}\n')


@settings(max_examples=25, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), empty_brand=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_property(tmp_path_factory, d, empty_brand, seed):
    """Small fitted states, one brand with no events: a v2 file re-saves
    byte-identically, the same document as v1 (plus xi) loads to the same
    factors, and both rank identically."""
    rng = np.random.default_rng(seed)
    n = 40
    brands = rng.choice([b for b in range(4) if b != empty_brand], size=n)
    data = Dataset.from_arrays(rng.standard_normal((n, d)), rng.integers(0, 3, size=n),
                               brands, rng.integers(0, 2, size=n), 3, 4)
    hp = HyperParams(num_styles=2, feature_dim=d, max_iters=3)
    state, report = fit(data, hp, seed=seed)
    root = tmp_path_factory.mktemp("ckpt")
    p1, p2, p3 = root / "a.json", root / "b.json", root / "v1.json"
    save_checkpoint(Checkpoint(hp, state, report), p1)
    v2 = load_checkpoint(p1)
    save_checkpoint(v2, p2)
    assert_identical(p1.read_bytes(), p2.read_bytes())

    doc = json.loads(p1.read_text())
    doc["schema_version"] = 1
    doc["state"]["xi"] = update_xi(*event_moments(state, data)).tolist()
    save_json(doc, p3)
    v1 = load_checkpoint(p3)
    assert (v1.schema_version, v2.schema_version) == (1, 2)
    for name in ("user_mean", "user_cov", "brand_mean", "brand_cov", "style_mean",
                 "style_var", "w_mean", "w_var", "theta_gamma", "resp",
                 "prec_u", "prec_b", "prec_s", "prec_w"):
        np.testing.assert_array_equal(getattr(v1.state, name), getattr(state, name))
        np.testing.assert_array_equal(getattr(v2.state, name), getattr(state, name))

    cands = [(i, rng.standard_normal(d), b) for i, b in enumerate([0, 1, 2, 3, None, 4, -1] * 2)]
    for user in (0, 2, None):
        want = rank_top_k(user, cands, state, k=5)
        assert rank_top_k(user, cands, v1.state, k=5) == want
        assert rank_top_k(user, cands, v2.state, k=5) == want


# Floats whose repr takes each of its forms: signed zero, the smallest
# subnormal, exponents at both ends of the positional range, a shortest repr
# shorter than 17 digits, and the largest float.
_REPR_EDGES = [-0.0, 5e-324, 1e-05, 1e16, 0.1, 1.7976931348623157e308]


def _covariance_stack(rng, kind, n, d):
    """n covariances of one kind: "fitted" is spd_inverse output, exactly
    symmetric as every fitted stack is; "near" moves one entry of some of
    them by an ulp, symmetric only within validate's tolerance; "edges" are
    multiples v * I of a repr edge case v, with 0.0, -0.0 or 5e-324 on
    either side of the diagonal independently."""
    if kind == "edges":
        cov = rng.choice([0.0, -0.0, 5e-324], size=(n, d, d))
        cov[:, np.arange(d), np.arange(d)] = rng.choice(
            [0.1, 1e-05, 1e16, 1.7976931348623157e308], size=(n, 1))
        return cov
    a = rng.standard_normal((n, d, d))
    cov = spd_inverse(a @ np.swapaxes(a, 1, 2) + np.eye(d)) * 10.0 ** rng.integers(-5, 6)
    if kind == "near" and d > 1:
        moved = rng.random(n) < 0.5
        cov[moved, 0, 1] = np.nextafter(cov[moved, 0, 1], np.inf)
    return cov


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 2, 3, 8, 20]), users=st.integers(0, 30), brands=st.integers(0, 30),
       kinds=st.tuples(*[st.sampled_from(["fitted", "near", "edges"])] * 2),
       slice_entries=st.sampled_from([io._SLICE_ENTRIES, 1, 50]), with_ids=st.booleans(),
       seed=st.integers(0, 2**16))
def test_checkpoint_bytes_are_json_dumps_of_the_nested_document(
        tmp_path_factory, d, users, brands, kinds, slice_entries, with_ids, seed):
    """The streamed checkpoint is exactly json.dumps of the document built
    from nested lists, for exactly symmetric and nearly symmetric stacks,
    empty families, d from 1 to 20, families longer than one slice and the
    repr edge cases in means and covariances."""
    rng = np.random.default_rng(seed)
    hp = HyperParams(num_styles=2, feature_dim=d)
    state = random_state(hp, users, brands, seed)
    for (mean, cov), kind in zip((("user_mean", "user_cov"), ("brand_mean", "brand_cov")), kinds):
        n = getattr(state, mean).shape[0]
        values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
        edges = rng.random((n, d)) < 0.3
        values[edges] = rng.choice(_REPR_EDGES + [-1.7976931348623157e308], size=edges.sum())
        setattr(state, mean, values)
        setattr(state, cov, _covariance_stack(rng, kind, n, d))
    report = FitReport([-1e16, -0.1, 5e-324], converged=False)
    ids = ([f"u{k}" for k in range(users)], [f"b\u00e9{i}" for i in range(brands)])
    ckpt = Checkpoint(hp, state, report, *(ids if with_ids else (None, None)))
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    with mock.patch.object(io, "_SLICE_ENTRIES", slice_entries):
        save_checkpoint(ckpt, path)
    want = json.dumps(checkpoint_document(ckpt), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
    assert_identical(path.read_text(encoding="utf-8"), want)


def test_ranking_identical_after_round_trip(tmp_path):
    ckpt = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(ckpt, path)
    restored = load_checkpoint(path).state
    rng = np.random.default_rng(3)
    cands = [(i, rng.standard_normal(3), int(rng.integers(3))) for i in range(25)]
    before = rank_top_k(1, cands, ckpt.state, k=10)
    after = rank_top_k(1, cands, restored, k=10)
    assert before == after  # bit-identical probabilities and order


def test_trace_csv_format(tmp_path):
    path = tmp_path / "trace.csv"
    save_trace_csv([-10.5, -9.25], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,elbo"
    assert lines[1] == "0,-10.5"
    assert lines[2] == "1,-9.25"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*args, **env):
    """Run the CLI in a subprocess, with ``env`` added to this process's
    environment."""
    return subprocess.run([sys.executable, "-m", "hbayes.cli", *args],
                          capture_output=True, text=True, env={**os.environ, **env})


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """generate -> train once; reused by the CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    events = root / "events.jsonl"
    truth = root / "truth.json"
    ckpt = root / "model.json"
    trace = root / "trace.csv"
    gen = _run_cli("generate", "--users", "5", "--brands", "4", "--styles", "2",
                   "--events", "400", "--dim", "3", "--seed", "11",
                   "--out", str(events), "--truth-out", str(truth))
    assert gen.returncode == 0, gen.stderr
    train = _run_cli("train", "--events", str(events), "--styles", "2",
                     "--max-iters", "30", "--seed", "1",
                     "--checkpoint-out", str(ckpt), "--trace-out", str(trace))
    assert train.returncode == 0, train.stderr
    return {"root": root, "events": events, "truth": truth, "ckpt": ckpt,
            "trace": trace}


def test_cli_generate_outputs_parse(cli_artifacts):
    data = load_events(cli_artifacts["events"])
    assert len(data) == 400 and data.feature_dim == 3
    truth = json.loads(cli_artifacts["truth"].read_text())
    assert len(truth["style_assignments"]) == 4
    assert len(truth["style_vectors"]) == 2


def test_cli_train_outputs_parse(cli_artifacts):
    ckpt = load_checkpoint(cli_artifacts["ckpt"])
    assert ckpt.state.num_users == 5
    lines = cli_artifacts["trace"].read_text().splitlines()
    assert lines[0] == "iteration,elbo"
    elbos = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(elbos) == ckpt.fit_report.iterations_run


def test_cli_rank_end_to_end(cli_artifacts):
    out = cli_artifacts["root"] / "ranking.json"
    res = _run_cli("rank", "--checkpoint", str(cli_artifacts["ckpt"]),
                   "--events", str(cli_artifacts["events"]), "--user", "u0",
                   "--k", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["known_user"] is True
    assert len(doc["ranking"]) == 7
    probs = [row["prob"] for row in doc["ranking"]]
    assert probs == sorted(probs, reverse=True)


def test_cli_rank_unknown_user_cold_start(cli_artifacts):
    out = cli_artifacts["root"] / "ranking_cold.json"
    res = _run_cli("rank", "--checkpoint", str(cli_artifacts["ckpt"]),
                   "--events", str(cli_artifacts["events"]), "--user", "nobody",
                   "--k", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["known_user"] is False
    assert len(doc["ranking"]) == 3


def test_cli_eval_smoke(cli_artifacts):
    report = cli_artifacts["root"] / "report.json"
    res = _run_cli("eval", "--events", str(cli_artifacts["events"]), "--styles", "2",
                   "--folds", "2", "--seed", "0", "--k", "3,5",
                   "--report-out", str(report))
    assert res.returncode == 0, res.stderr
    doc = json.loads(report.read_text())
    assert doc["k_values"] == [3, 5]
    assert len(doc["folds"]) == 2
    assert set(doc["mean"]) == {"3", "5"}


def test_cli_eval_rejects_single_fold(cli_artifacts):
    res = _run_cli("eval", "--events", str(cli_artifacts["events"]), "--styles", "2",
                   "--folds", "1", "--report-out", "/dev/null")
    assert res.returncode == 2
    assert "folds" in res.stderr


# Valid arguments per command; input paths do not exist, so exit 2 rather
# than 1 shows that a bad value is rejected before any file is read.
def _good_args(command, tmp_path):
    if command == "generate":
        return {"--users": "3", "--brands": "3", "--styles": "2", "--events": "10",
                "--dim": "2", "--out": str(tmp_path / "events.jsonl"),
                "--truth-out": str(tmp_path / "truth.json")}
    if command == "train":
        return {"--events": str(tmp_path / "absent.jsonl"), "--styles": "2",
                "--checkpoint-out": str(tmp_path / "model.json"),
                "--trace-out": str(tmp_path / "trace.csv")}
    return {"--events": str(tmp_path / "absent.jsonl"), "--styles": "2",
            "--report-out": str(tmp_path / "report.json")}


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--max-iters", "-1"), ("train", "--tol", "0"), ("train", "--styles", "0"),
    ("train", "--tol", "inf"), ("generate", "--prec-user", "inf"),
    ("generate", "--feature-scale", "inf"),
    ("generate", "--users", "0"), ("generate", "--brands", "0"),
    ("generate", "--events", "0"), ("generate", "--dim", "0"),
    ("generate", "--styles", "0"), ("generate", "--feature-scale", "-1"),
    ("generate", "--prec-user", "0"), ("generate", "--prec-brand", "-1"),
    ("generate", "--prec-style", "0"), ("generate", "--prec-w", "-0.5"),
    ("eval", "--styles", "0"), ("eval", "--folds", "1"), ("eval", "--folds", "x"),
    ("eval", "--k", "0,5"), ("eval", "--k", "3,,5"), ("eval", "--k", "a"),
    ("generate", "--seed", "-1"), ("train", "--seed", "-5"), ("eval", "--seed", "-1"),
])
def test_cli_rejects_bad_value_as_usage_error(tmp_path, command, flag, value):
    args = {**_good_args(command, tmp_path), flag: value}
    res = _run_cli(command, *[tok for pair in args.items() for tok in pair])
    assert res.returncode == 2
    assert flag in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_rank_rejects_k_zero_as_usage_error(tmp_path):
    res = _run_cli("rank", "--checkpoint", str(tmp_path / "absent.json"),
                   "--events", str(tmp_path / "absent.jsonl"), "--user", "u0",
                   "--k", "0", "--out", str(tmp_path / "ranking.json"))
    assert res.returncode == 2
    assert "--k" in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    train = parser.parse_args(["train", "--events", "e.jsonl", "--styles", "2",
                               "--checkpoint-out", "m.json"])
    assert (train.max_iters, train.tol) == (HyperParams.max_iters, HyperParams.rel_tol)
    ev = parser.parse_args(["eval", "--events", "e.jsonl", "--styles", "2",
                            "--report-out", "r.json"])
    assert ev.k == evaluation.DEFAULT_K_VALUES
    assert ev.folds == inspect.signature(cross_validate).parameters["folds"].default
    gen = parser.parse_args(["generate", "--users", "2", "--brands", "2", "--styles", "2",
                             "--events", "5", "--dim", "2", "--out", "e.jsonl"])
    library = inspect.signature(sample_dataset).parameters
    assert gen.feature_scale == library["feature_scale"].default
    assert (gen.prec_user, gen.prec_brand, gen.prec_style, gen.prec_w) == \
        library["true_precisions"].default


def test_cli_unknown_flag_is_usage_error():
    res = _run_cli("train", "--nonsense")
    assert res.returncode == 2


def test_cli_missing_file_is_runtime_error(tmp_path):
    res = _run_cli("train", "--events", str(tmp_path / "nope.jsonl"), "--styles", "2",
                   "--checkpoint-out", str(tmp_path / "m.json"))
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("text", ["[]", "null"])
def test_cli_rank_non_object_checkpoint_is_one_error_line(tmp_path, text):
    ckpt = tmp_path / "model.json"
    ckpt.write_text(text)
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(tmp_path / "c.jsonl"),
                   "--user", "u0", "--out", str(tmp_path / "ranking.json"))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: checkpoint must be a JSON object"]


@pytest.mark.parametrize("keys", _NON_FINITE_ENTRIES, ids=lambda keys: ".".join(map(str, keys)))
def test_cli_rank_infinite_checkpoint_value_is_one_error_line(cli_artifacts, tmp_path, keys):
    ckpt = tmp_path / "model.json"
    _write_with(cli_artifacts["ckpt"], ckpt, keys, float("inf"))
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(cli_artifacts["events"]),
                   "--user", "u0", "--out", str(tmp_path / "ranking.json"))
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0], res.stderr


@pytest.mark.parametrize("case", _BAD_IDS)
def test_cli_rank_bad_checkpoint_ids_are_one_error_line(tmp_path, case):
    field, wrong = _BAD_IDS[case]
    ckpt = tmp_path / "model.json"
    save_checkpoint(_fitted(tmp_path), ckpt)
    doc = json.loads(ckpt.read_text())
    doc[field] = wrong
    ckpt.write_text(json.dumps(doc))
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(tmp_path / "train.jsonl"),
                   "--user", "u0", "--out", str(tmp_path / "ranking.json"))
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0], res.stderr
    assert not (tmp_path / "ranking.json").exists()


def test_cli_rank_candidates_of_another_dimension_is_one_error_line(cli_artifacts, tmp_path):
    """Candidates with 2 features against a model of dimension 3: exit 1,
    one error line and no ranking file."""
    events, out = tmp_path / "candidates.jsonl", tmp_path / "ranking.json"
    _write_lines(events, [json.dumps({"user": "u0", "brand": "b0", "x": [1.0, 2.0]})])
    res = _run_cli("rank", "--checkpoint", str(cli_artifacts["ckpt"]), "--events", str(events),
                   "--user", "u0", "--out", str(out))
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "dimension" in lines[0], \
        res.stderr
    assert not out.exists()


def test_cli_train_empty_features_names_the_line(tmp_path):
    events = tmp_path / "events.jsonl"
    _write_lines(events, [json.dumps({"user": "u0", "brand": "b0", "x": [], "y": 1})])
    res = _run_cli("train", "--events", str(events), "--styles", "2",
                   "--checkpoint-out", str(tmp_path / "model.json"))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: line 1: x must not be empty"]


def test_cli_integer_past_the_digit_limit_is_one_error_line(tmp_path):
    """A 5001-digit integer in an event file or a checkpoint: exit 1, one
    error line, no output file."""
    ckpt, out = tmp_path / "model.json", tmp_path / "out.json"
    save_checkpoint(_fitted(tmp_path), ckpt)
    _with_huge_num_users(ckpt)
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(tmp_path / "train.jsonl"),
                   "--user", "u0", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: invalid JSON: an integer has more than 4300 digits"]
    events = tmp_path / "events.jsonl"
    _write_lines(events, [_event_line(), _event_line(f"[{'1' * 5001}, 2.0]")])
    res = _run_cli("train", "--events", str(events), "--styles", "2", "--checkpoint-out", str(out))
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        "error: line 2: invalid JSON (an integer has more than 4300 digits)"]
    assert not out.exists()


def test_cli_bytes_that_are_not_utf8_are_one_error_line(tmp_path):
    """A byte 0xff in an event file or a checkpoint: exit 1, one error line
    naming the line or the offset, no output file."""
    ckpt, out = tmp_path / "model.json", tmp_path / "out.json"
    save_checkpoint(_fitted(tmp_path), ckpt)
    ckpt.write_bytes(ckpt.read_bytes().replace(b'"u0"', b'"u\xff"', 1))
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(tmp_path / "train.jsonl"),
                   "--user", "u0", "--out", str(out))
    assert res.returncode == 1
    [line] = res.stderr.splitlines()
    assert line.startswith("error: invalid UTF-8: byte 0xff at offset "), res.stderr
    events = tmp_path / "events.jsonl"
    events.write_bytes(b"\n".join([_event_line().encode(),
                                   _event_line().encode().replace(b"u0", b"u\xff"), b""]))
    res = _run_cli("train", "--events", str(events), "--styles", "2", "--checkpoint-out", str(out))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: line 2: invalid UTF-8 (byte 0xff)"]
    assert not out.exists()


def test_cli_nesting_past_the_recursion_limit_is_one_error_line(tmp_path):
    """An event line or a checkpoint nested past the interpreter's recursion
    limit: exit 1, one error line, no output file."""
    ckpt, out, events = tmp_path / "model.json", tmp_path / "out.json", tmp_path / "events.jsonl"
    ckpt.write_text('{"schema_version": 2, "state": ' + "[" * 100_000, encoding="utf-8")
    _write_lines(events, [_event_line()])
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(events), "--user", "u0",
                   "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: invalid JSON: nested too deeply"]
    _write_lines(events, [_event_line(), '{"x": ' + "[" * 100_000])
    res = _run_cli("train", "--events", str(events), "--styles", "2", "--checkpoint-out", str(out))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: line 2: invalid JSON (nested too deeply)"]
    assert not out.exists()


def _train_on_scaled_features(tmp_path, scale, **env):
    """``hbayes train`` on a 400-event file whose x are scaled by ``scale``;
    returns the run and the checkpoint path."""
    hp = HyperParams(num_styles=2, feature_dim=3)
    data, _ = sample_dataset(hp, num_users=8, num_brands=6, num_events=400, seed=0)
    events, ckpt = tmp_path / "events.jsonl", tmp_path / "model.json"
    save_events(Dataset.from_arrays(scale * data.X, data.users, data.brands, data.y,
                                    data.num_users, data.num_brands), events)
    res = _run_cli("train", "--events", str(events), "--styles", "2", "--max-iters", "30",
                   "--checkpoint-out", str(ckpt), **env)
    return res, ckpt


def test_cli_train_overflowing_features_is_one_error_line(tmp_path):
    """Features near 1e154 overflow the precision sums: the fit stops at sweep
    0 and no checkpoint is written."""
    res, ckpt = _train_on_scaled_features(tmp_path, 1e154)
    assert res.returncode == 1
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: sweep 0: matrix has non-finite entries"], res.stderr
    assert not ckpt.exists()


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_cli_train_overflow_with_warnings_as_errors(tmp_path, scale):
    """The overflowing precision sums raise no RuntimeWarning, so with
    warnings made errors stderr is still the one error line."""
    res, ckpt = _train_on_scaled_features(tmp_path, scale,
                                          PYTHONWARNINGS="error::RuntimeWarning")
    assert res.returncode == 1
    assert res.stderr == "error: sweep 0: matrix has non-finite entries\n"
    assert not ckpt.exists()


def test_cli_same_seed_identical_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        events = tmp_path / f"{name}.jsonl"
        ckpt = tmp_path / f"{name}_model.json"
        r1 = _run_cli("generate", "--users", "4", "--brands", "3", "--styles", "2",
                      "--events", "200", "--dim", "2", "--seed", "7",
                      "--out", str(events))
        r2 = _run_cli("train", "--events", str(events), "--styles", "2",
                      "--max-iters", "10", "--seed", "3",
                      "--checkpoint-out", str(ckpt))
        assert r1.returncode == 0 and r2.returncode == 0
        outs.append((events.read_bytes(), ckpt.read_bytes()))
    assert outs[0] == outs[1]
