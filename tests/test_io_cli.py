"""Tests for file formats, hashing, persistence, and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hbayes import (
    CheckpointError,
    Dataset,
    EventParseError,
    HyperParams,
    fit,
    hash_features,
    load_checkpoint,
    load_events,
    rank_top_k,
    sample_dataset,
    save_checkpoint,
    save_events,
)
from hbayes.io import load_candidates, save_json, save_trace_csv

# A schema-1 checkpoint as the version-1 writer left it: ``hbayes generate
# --users 6 --brands 4 --styles 2 --events 300 --dim 3 --seed 1``, then
# ``hbayes train --styles 2 --max-iters 5``.
CHECKPOINT_V1 = Path(__file__).parent / "data" / "checkpoint_v1.json"


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


# Each file holds one or more faults; the loaders check finiteness once over
# all rows, so these pin that the first faulty line is still the one named.
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


def test_hash_features_rejects_bad_width():
    with pytest.raises(ValueError):
        hash_features([("a", "b")], 0)


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
    meta = {"hyperparams": hp, "num_users": data.num_users,
            "num_brands": data.num_brands, "fit_report": report,
            "user_ids": data.user_ids, "brand_ids": data.brand_ids}
    return hp, data, state, meta


def test_checkpoint_round_trip_byte_identical(tmp_path):
    _, _, state, meta = _fitted(tmp_path)
    p1 = tmp_path / "model.json"
    p2 = tmp_path / "model2.json"
    save_checkpoint(state, meta, p1)
    ckpt = load_checkpoint(p1)
    save_checkpoint(ckpt.state, {
        "hyperparams": ckpt.hyperparams, "num_users": ckpt.num_users,
        "num_brands": ckpt.num_brands, "fit_report": ckpt.fit_report,
        "user_ids": ckpt.user_ids, "brand_ids": ckpt.brand_ids}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_invalid_gamma(tmp_path):
    _, _, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
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


def _write_with_infinity(src, dst, keys):
    obj = doc = json.loads(src.read_text())
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = float("inf")
    dst.write_text(json.dumps(doc))  # allow_nan: writes Infinity


@pytest.mark.parametrize("keys", _NON_FINITE_ENTRIES, ids=lambda keys: ".".join(map(str, keys)))
def test_checkpoint_rejects_infinity(tmp_path, keys):
    _, _, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    _write_with_infinity(path, path, keys)
    with pytest.raises(CheckpointError, match="finite"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_mismatch(tmp_path):
    _, _, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    doc = json.loads(path.read_text())
    for version in (99, 0, 3, True, 1.0, "2"):  # only the integers 1 and 2 are readable
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="schema_version"):
            load_checkpoint(path)


def test_checkpoint_rejects_malformed_json(tmp_path):
    path = tmp_path / "model.json"
    for text, message in (("{broken", "invalid JSON"), ("[]", "must be a JSON object")):
        path.write_text(text)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


@pytest.mark.parametrize("family, index, spread, value", [
    ("users", 0, "iso_var", 0.5), ("brands", 1, "iso_var", 0.5),
    ("styles", 0, "cov", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("w", None, "cov", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
])
def test_checkpoint_rejects_wrong_covariance_form(tmp_path, family, index, spread, value):
    _, _, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    doc = json.loads(path.read_text())
    factor = doc["state"][family] if index is None else doc["state"][family][index]
    factor.pop("cov", None)
    factor.pop("iso_var", None)
    factor[spread] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    _, _, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    doc = json.loads(path.read_text())
    doc["num_users"] = 17
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="dimensions"):
        load_checkpoint(path)


def _meta(ckpt):
    """The save_checkpoint meta of a loaded Checkpoint."""
    return {"hyperparams": ckpt.hyperparams, "num_users": ckpt.num_users,
            "num_brands": ckpt.num_brands, "fit_report": ckpt.fit_report,
            "user_ids": ckpt.user_ids, "brand_ids": ckpt.brand_ids}


def test_checkpoint_v2_stores_no_xi(tmp_path):
    _, data, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2 and "xi" not in doc["state"]
    ckpt = load_checkpoint(path)
    assert ckpt.schema_version == 2
    assert ckpt.state.xi.shape == (0,)


def test_checkpoint_v1_fixture_loads_with_xi(tmp_path):
    doc = json.loads(CHECKPOINT_V1.read_text())
    ckpt = load_checkpoint(CHECKPOINT_V1)
    assert ckpt.schema_version == 1
    assert ckpt.state.xi.tolist() == doc["state"]["xi"] and len(doc["state"]["xi"]) == 300

    v2 = tmp_path / "v2.json"
    save_checkpoint(ckpt.state, _meta(ckpt), v2)
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
    save_checkpoint(restored.state, _meta(restored), again)
    assert again.read_bytes() == v2.read_bytes()


@pytest.mark.parametrize("value, message", [(-0.5, "non-negative"), (float("inf"), "finite")])
def test_checkpoint_v1_xi_still_checked(tmp_path, value, message):
    doc = json.loads(CHECKPOINT_V1.read_text())
    doc["state"]["xi"][7] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # allow_nan: writes Infinity
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


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
    save_checkpoint(state, {"hyperparams": hp, "num_users": 3, "num_brands": 4,
                            "fit_report": report}, p1)
    v2 = load_checkpoint(p1)
    save_checkpoint(v2.state, _meta(v2), p2)
    assert p1.read_bytes() == p2.read_bytes()

    doc = json.loads(p1.read_text())
    doc["schema_version"] = 1
    doc["state"]["xi"] = state.xi.tolist()
    save_json(doc, p3)
    v1 = load_checkpoint(p3)
    assert (v1.schema_version, v2.schema_version) == (1, 2)
    np.testing.assert_array_equal(v1.state.xi, state.xi)
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


def test_ranking_identical_after_round_trip(tmp_path):
    _, data, state, meta = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_checkpoint(state, meta, path)
    restored = load_checkpoint(path).state
    rng = np.random.default_rng(3)
    cands = [(i, rng.standard_normal(3), int(rng.integers(3))) for i in range(25)]
    before = rank_top_k(1, cands, state, k=10)
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


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hbayes.cli", *args],
                          capture_output=True, text=True)


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
    assert ckpt.num_users == 5
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
    ("generate", "--users", "0"), ("generate", "--brands", "0"),
    ("generate", "--events", "0"), ("generate", "--dim", "0"),
    ("generate", "--styles", "0"), ("generate", "--feature-scale", "-1"),
    ("generate", "--prec-user", "0"), ("generate", "--prec-brand", "-1"),
    ("generate", "--prec-style", "0"), ("generate", "--prec-w", "-0.5"),
    ("eval", "--styles", "0"),
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
    _write_with_infinity(cli_artifacts["ckpt"], ckpt, keys)
    res = _run_cli("rank", "--checkpoint", str(ckpt), "--events", str(cli_artifacts["events"]),
                   "--user", "u0", "--out", str(tmp_path / "ranking.json"))
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0], res.stderr


def test_cli_train_empty_features_names_the_line(tmp_path):
    events = tmp_path / "events.jsonl"
    _write_lines(events, [json.dumps({"user": "u0", "brand": "b0", "x": [], "y": 1})])
    res = _run_cli("train", "--events", str(events), "--styles", "2",
                   "--checkpoint-out", str(tmp_path / "model.json"))
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: line 1: x must not be empty"]


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
