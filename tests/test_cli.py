import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sirank as sr
import sirank.cli
from sirank.cli import main
from sirank.scoring import fit_stats


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated corpus plus one trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["generate", "--out", str(root / "data.jsonl"),
                 "--queries", "60", "--seed", "5"])
    assert code == 0
    code = main(["train", "--data", str(root / "data.jsonl"),
                 "--schema", str(root / "data.schema.json"),
                 "--out", str(root / "model.json"),
                 "--loss", "ranknet", "--mode", "sir",
                 "--epochs", "4", "--patience", "3", "--seed", "2"])
    assert code == 0
    return root


def test_generate_writes_dataset_schema_and_sidecar(workdir):
    data = workdir / "data.jsonl"
    assert len(data.read_text().splitlines()) == 60
    assert (workdir / "data.schema.json").exists()
    meta = json.loads((workdir / "data.jsonl.meta.json").read_text())
    assert meta["n_queries"] == 60
    assert meta["provenance"]["tool"] == "sirank"
    assert meta["provenance"]["seed"] == 5
    assert len(meta["dataset_fingerprint"]) == 16


def test_generate_is_deterministic(workdir, tmp_path):
    main(["generate", "--out", str(tmp_path / "a.jsonl"), "--queries", "60", "--seed", "5"])
    assert (tmp_path / "a.jsonl").read_bytes() == (workdir / "data.jsonl").read_bytes()
    main(["generate", "--out", str(tmp_path / "b.jsonl"), "--queries", "60", "--seed", "6"])
    assert (tmp_path / "b.jsonl").read_bytes() != (workdir / "data.jsonl").read_bytes()


def test_train_writes_checkpoint_and_history(workdir):
    ckpt = json.loads((workdir / "model.json").read_text())
    assert ckpt["mode"] == "sir"
    assert ckpt["provenance"]["subcommand"] == "train"
    hist = json.loads((workdir / "model.json.history.json").read_text())
    assert hist["history"]["stopping_reason"] in ("max_epochs", "early_stop")
    assert hist["train_config"]["loss"] == "ranknet"


def test_evaluate_reports_case_invariance(workdir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = main(["evaluate", "--model", str(workdir / "model.json"),
                 "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--cases", "1,2,3,4", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())["results"]
    values = [payload["clean"]["mean"]] + [payload[f"case{c}"]["mean"] for c in (1, 2, 3, 4)]
    assert max(values) - min(values) < 1e-9
    assert payload["invariance_gap_c1200"] < 1e-9


def test_evaluate_twice_is_bitwise_identical(workdir, tmp_path):
    paths = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        main(["evaluate", "--model", str(workdir / "model.json"),
              "--data", str(workdir / "data.jsonl"),
              "--schema", str(workdir / "data.schema.json"), "--out", str(out)])
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_evaluate_refuses_foreign_schema(workdir, tmp_path, capsys):
    main(["generate", "--out", str(tmp_path / "other.jsonl"),
          "--queries", "12", "--seed", "9"])
    schema_path = tmp_path / "other.schema.json"
    schema = json.loads(schema_path.read_text())
    schema["item_features_fixed"] = schema["item_features_fixed"][:-1]
    schema_path.write_text(json.dumps(schema))
    code = main(["evaluate", "--model", str(workdir / "model.json"),
                 "--data", str(tmp_path / "other.jsonl"),
                 "--schema", str(schema_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "fingerprint" in err


def test_perturb_composes_bitwise(workdir, tmp_path):
    schema = str(workdir / "data.schema.json")
    data = str(workdir / "data.jsonl")
    assert main(["perturb", "--data", data, "--schema", schema,
                 "--case", "1", "--out", str(tmp_path / "p1.jsonl")]) == 0
    assert main(["perturb", "--data", str(tmp_path / "p1.jsonl"), "--schema", schema,
                 "--case", "2", "--out", str(tmp_path / "p12.jsonl")]) == 0
    assert main(["perturb", "--data", data, "--schema", schema,
                 "--case", "3", "--out", str(tmp_path / "p3.jsonl")]) == 0
    assert (tmp_path / "p12.jsonl").read_bytes() == (tmp_path / "p3.jsonl").read_bytes()
    meta = json.loads((tmp_path / "p3.jsonl.meta.json").read_text())
    assert meta["case"] == 3
    assert meta["targets"] == ["price", "discount"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_evaluate_and_perturb_outputs_are_pinned(workdir, tmp_path, capsys):
    # sha256 under numpy 2.4.6 of what `perturb --case 3` writes and of the
    # `results` block of `evaluate --case 1,2,3,4`, for the trained sir
    # checkpoint and an untrained deep_only one: any change to a loaded,
    # rescaled or scored value moves them
    schema_path = workdir / "data.schema.json"
    data = workdir / "data.jsonl"
    ds = sr.load_dataset(data, sr.load_schema(schema_path))
    deep = sr.build_model(ds.schema, mode="deep_only", seed=3, stats=fit_stats(ds, "deep_only"))
    sr.save_checkpoint(deep, tmp_path / "deep.json")
    assert main(["perturb", "--data", str(data), "--schema", str(schema_path),
                 "--case", "3", "--out", str(tmp_path / "p3.jsonl")]) == 0
    got = {"perturb": _sha256((tmp_path / "p3.jsonl").read_bytes()),
           "perturb_meta": _sha256((tmp_path / "p3.jsonl.meta.json").read_bytes())}
    for name, model in (("sir", workdir / "model.json"), ("deep_only", tmp_path / "deep.json")):
        out = tmp_path / f"eval_{name}.json"
        assert main(["evaluate", "--model", str(model), "--data", str(data),
                     "--schema", str(schema_path), "--case", "1,2,3,4", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        got[f"evaluate_{name}"] = _sha256(json.dumps(results, sort_keys=True).encode())
    capsys.readouterr()
    assert got == {
        "perturb": "e11ad5d514ab0e0b11e35dcf0b640aa099955ea7f2fe70af4ce3b622f9814ea7",
        "perturb_meta": "d73545964594e1e61ec5f4fc5e8ae1abec5c8893470d032f7d34a85e03f0fffb",
        "evaluate_sir": "d1d7ddf6e91df150908db6c935f72e4d8f2a35d42c08aa3d76e442cf5b3db3f5",
        "evaluate_deep_only": "3e7dd083b4132687e2d2c509c28b0052019cfab02e0f624cfc686544932c837c",
    }


def test_perturb_rejects_unknown_case(workdir, tmp_path, capsys):
    code = main(["perturb", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--case", "9", "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("data", ["nope.jsonl", "data.jsonl"])
def test_perturb_refuses_several_cases_before_loading(workdir, tmp_path, capsys, monkeypatch,
                                                      data):
    loaded = []
    monkeypatch.setattr(sirank.cli, "load_dataset", lambda *args: loaded.append(args))
    code = main(["perturb", "--data", str(workdir / data), "--schema",
                 str(workdir / "data.schema.json"), "--case", "1,2",
                 "--out", str(tmp_path / "x.jsonl")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: perturb applies exactly one --case per run\n"
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value, message", [
    ("[" * 1200 + "]" * 1200, "maximum recursion depth exceeded"),
    ("1" * 5000, "Exceeds the limit (4300 digits)")])
def test_perturb_ends_a_line_json_cannot_read_in_one_line(workdir, tmp_path, capsys,
                                                         value, message):
    lines = (workdir / "data.jsonl").read_text().splitlines()
    data = tmp_path / "bad.jsonl"
    data.write_text("\n".join([lines[0], lines[1][:-1] + f', "x": {value}}}'] + lines[2:]) + "\n")
    code = main(["perturb", "--data", str(data), "--schema", str(workdir / "data.schema.json"),
                 "--case", "3", "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith(f"validation error: {data}: line 2: {message}"), err


@pytest.fixture(scope="module")
def experiment_out(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    code = main(["experiment", "--generate", "--queries", "60", "--seed", "4",
                 "--loss", "ranknet,listmle", "--epochs", "3", "--patience", "2",
                 "--out", str(root / "rep")])
    assert code == 0
    return root


def test_experiment_writes_three_formats(experiment_out):
    root = experiment_out
    payload = json.loads((root / "rep.json").read_text())
    assert payload["provenance"]["subcommand"] == "experiment"
    cells = payload["report"]["cells"]
    assert [(c["loss"], c["mode"]) for c in cells] == [
        ("ranknet", "deep_only"), ("ranknet", "sir"),
        ("listmle", "deep_only"), ("listmle", "sir"),
    ]
    text = (root / "rep.txt").read_text()
    assert text.startswith("# tool=sirank")
    assert "(inv)" in text
    csv_text = (root / "rep.csv").read_text()
    assert "loss,mode,val_ndcg" in csv_text


def test_experiment_is_deterministic(experiment_out, tmp_path):
    code = main(["experiment", "--generate", "--queries", "60", "--seed", "4",
                 "--loss", "ranknet,listmle", "--epochs", "3", "--patience", "2",
                 "--out", str(tmp_path / "rep")])
    assert code == 0
    for ext in (".json", ".txt", ".csv"):
        assert ((tmp_path / "rep").with_suffix(ext).read_bytes()
                == (experiment_out / "rep").with_suffix(ext).read_bytes())


def test_experiment_train_and_report_outputs_are_pinned(workdir, experiment_out, tmp_path,
                                                        capsys, monkeypatch):
    # sha256 under numpy 2.4.6 of the report files, of a train run's history
    # and of a report with a diverging cell (listnet/sir, its step raised to
    # 1.5): any change to how a report or a history is written moves them
    got = {f"rep{ext}": _sha256((experiment_out / f"rep{ext}").read_bytes())
           for ext in (".json", ".txt", ".csv")}
    got["history"] = _sha256((workdir / "model.json.history.json").read_bytes())
    monkeypatch.setitem(sr.trainer.DEFAULT_LEARNING_RATES, "listnet", 1.5)
    assert main(["experiment", "--generate", "--queries", "60", "--seed", "4",
                 "--loss", "ranknet,listnet", "--epochs", "2", "--patience", "1",
                 "--out", str(tmp_path / "div")]) == 4
    capsys.readouterr()
    report = json.loads((tmp_path / "div.json").read_text())["report"]
    assert [(c["loss"], c["mode"]) for c in report["cells"] if c["error"]] == [("listnet", "sir")]
    for ext in (".json", ".txt", ".csv"):
        got[f"div{ext}"] = _sha256((tmp_path / f"div{ext}").read_bytes())
    assert got == {
        "rep.json": "a67c5b3dbb42af286614c0c7da020661c99400a31b72020b22e5fc2a67bec4e2",
        "rep.txt": "e1bd10b3ec8878ca2fedf5db84c5aecbe4c6840b0d8c4434985ef2eaa505c09a",
        "rep.csv": "7883acebd7553db072b2afad76d41db079f5d0336dd82134f4497a89190875e8",
        "history": "4acbcb8171cc490d746923931de7967fb4321ea2452f382e2b13ede6e773cc14",
        "div.json": "6d0e23372adc824b35b54edb5c3f6050edc8a0d41030348540e8099e83cc9e58",
        "div.txt": "b62bb03062a8101fd7485f1b0f62dff3567a74f341067ac54778b1de297bc14f",
        "div.csv": "6513568a2fc3f3ceeb9a3889c70d453a5995919d999e627c98b63d1468adbb4f",
    }


def test_report_rerenders_saved_json(experiment_out, tmp_path, capsys):
    code = main(["report", "--data", str(experiment_out / "rep.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ranknet (inv)" in out
    code = main(["report", "--data", str(experiment_out / "rep.json"),
                 "--out", str(tmp_path / "again")])
    assert code == 0
    rendered = (tmp_path / "again.txt").read_text()
    saved = (experiment_out / "rep.txt").read_text()
    assert rendered.splitlines()[-3:] == saved.splitlines()[-3:]


@pytest.mark.parametrize("content", [
    '{"report": {"cells": [{"loss": "ranknet"}], "tests": [], "meta": {}}}',
    '{"report": {"cells": [], "tests": [], "meta": {"alpha": "0.05"}}}',
    '{"report": ',
    '{"report": {"cells": [], "tests": [], "meta": {"alpha": 0.05, "n_comparisons": 1, '
    f'"significance_threshold": {10 ** 400}, "random_ranker_test_ndcg": 0.5}}}}}}',
], ids=["cell_without_mode", "meta_with_string", "not_json", "meta_with_int_beyond_float"])
def test_malformed_report_is_validation_error(tmp_path, capsys, content):
    bad = tmp_path / "rep.json"
    bad.write_text(content)
    code = main(["report", "--data", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case", ["deep_only_loss", "sir_mode", "cell_error",
                                  "test_loss", "test_condition"])
def test_report_with_a_non_string_name_is_validation_error(experiment_out, tmp_path, capsys,
                                                           case):
    payload = json.loads((experiment_out / "rep.json").read_text())
    report = payload["report"]
    if case == "deep_only_loss":
        report["cells"][0]["loss"] = ["x"]
    elif case == "sir_mode":
        report["cells"][1]["mode"] = ["sir"]
    elif case == "cell_error":
        report["cells"][1]["error"] = ["diverged"]
    elif case == "test_loss":
        report["tests"][0]["loss"] = ["ranknet"]
    else:
        report["tests"][0]["condition"] = ["test"]
    bad = tmp_path / "rep.json"
    bad.write_text(json.dumps(payload))
    for out in ([], ["--out", str(tmp_path / "again")]):
        assert main(["report", "--data", str(bad), *out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: malformed experiment report: expected a string")
        assert len(err.splitlines()) == 1


def _break_first_query(record, case):
    items = record["items"]
    if case == "item_not_object":
        items[1] = 7
    elif case == "string_fixed_value":
        items[1]["fixed"]["star_rating"] = "4.5"
    elif case == "null_scalevariant_value":
        items[1]["scalevariant"]["price"] = None
    elif case == "boolean_fixed_value":
        items[1]["fixed"]["star_rating"] = True
    elif case == "boolean_scalevariant_value":
        items[1]["scalevariant"]["price"] = False
    elif case == "huge_integer_value":
        items[1]["scalevariant"]["price"] = 10 ** 400  # no float64 holds it
    elif case == "unknown_fixed_key":
        items[1]["fixed"]["colour"] = 3.0
    elif case == "unknown_scalevariant_key":
        items[1]["scalevariant"]["colour"] = 3.0
    elif case == "duplicate_item_id":
        items[1]["item_id"] = items[0]["item_id"]


@pytest.mark.parametrize("case", ["item_not_object", "string_fixed_value",
                                  "null_scalevariant_value", "boolean_fixed_value",
                                  "boolean_scalevariant_value", "huge_integer_value",
                                  "unknown_fixed_key", "unknown_scalevariant_key",
                                  "duplicate_item_id", "duplicate_query_id"])
def test_bad_item_record_is_validation_error(workdir, tmp_path, capsys, case):
    lines = (workdir / "data.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    _break_first_query(record, case)
    bad = tmp_path / "bad.jsonl"
    # a duplicate query_id: the first record again, right after itself
    repeated = [json.dumps(record)] if case == "duplicate_query_id" else []
    bad.write_text("\n".join([json.dumps(record)] + repeated + lines[1:]) + "\n")
    code = main(["perturb", "--data", str(bad), "--schema", str(workdir / "data.schema.json"),
                 "--case", "3", "--out", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    if case == "duplicate_query_id":
        assert err.startswith(f"validation error: query {record['query_id']}: "
                              "duplicate query_id (lines 1 and 2)")
    else:
        assert err.startswith(f"validation error: query {record['query_id']}: item ")
    if case == "item_not_object":
        assert "item at position 1 is not a JSON object" in err
    elif case in ("unknown_fixed_key", "unknown_scalevariant_key"):
        assert f"item {record['items'][1]['item_id']}: " in err
        assert "features not in the schema: ['colour']" in err
    elif case == "duplicate_item_id":
        assert f"item {record['items'][0]['item_id']}: duplicate item_id" in err
    elif case != "duplicate_query_id":
        assert f"item {record['items'][1]['item_id']}: " in err and "is not numeric" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.jsonl").exists()


def _break_schema(obj, case):
    categorical = next(f for f in obj["query_features"] if f["kind"] == "categorical")
    if case == "float_cardinality":
        categorical["cardinality"] = float(categorical["cardinality"])
    elif case == "float_embedding_dim":
        categorical["embedding_dim"] = float(categorical["embedding_dim"])
    elif case == "boolean_cardinality":
        categorical["cardinality"] = True
    elif case == "string_item_group":
        obj["item_features_fixed"] = obj["item_features_fixed"][0]
    elif case == "number_as_feature_name":
        obj["item_features_scalevariant"].append(7)


@pytest.mark.parametrize("case", ["float_cardinality", "float_embedding_dim",
                                  "boolean_cardinality", "string_item_group",
                                  "number_as_feature_name"])
def test_schema_with_wrong_types_is_validation_error(workdir, tmp_path, capsys, case):
    obj = json.loads((workdir / "data.schema.json").read_text())
    _break_schema(obj, case)
    bad = tmp_path / "bad.schema.json"
    bad.write_text(json.dumps(obj))
    code = main(["train", "--data", str(workdir / "data.jsonl"), "--schema", str(bad),
                 "--out", str(tmp_path / "m.json"), "--epochs", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validation error: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


def test_overflowing_feature_is_named_before_training(workdir, tmp_path, capsys):
    # the spread of review_count overflows float64, so its standard deviation
    # is infinite and standardization would zero the feature
    records = [json.loads(line) for line in (workdir / "data.jsonl").read_text().splitlines()]
    for record in records:
        for item in record["items"]:
            item["fixed"]["review_count"] *= 1e200
    bad = tmp_path / "big.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(["train", "--data", str(bad), "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"), "--epochs", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("validation error: feature 'review_count' has a non-finite mean or "
                   "standard deviation on the training split\n")
    assert not (tmp_path / "m.json").exists()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--data", "x.jsonl"]) == 2
    assert capsys.readouterr().err == ("usage error: the following arguments are required: "
                                       "--schema, --out\n")


@pytest.mark.parametrize("argv, want", [
    (["report", "--data", "r.json", "--colour"], "unrecognized arguments: --colour"),
    (["generate", "--out", "d.jsonl", "--queries", "x"], "argument --queries: invalid int value: 'x'"),
    (["train", "--data", "d.jsonl", "--schema", "d.schema.json", "--out", "m.json",
      "--lr", "fast"], "argument --lr: invalid float value: 'fast'"),
    (["train", "--data", "d.jsonl", "--schema", "d.schema.json", "--out", "m.json",
      "--mode", "bogus"], "argument --mode: invalid choice: 'bogus' (choose from 'sir', 'deep_only')"),
    (["fit"], "argument subcommand: invalid choice: 'fit' (choose from 'generate', 'train', "
              "'evaluate', 'perturb', 'experiment', 'report')"),
    ([], "the following arguments are required: subcommand"),
], ids=["unknown_flag", "bad_int", "bad_float", "bad_choice",
        "unknown_subcommand", "no_subcommand"])
def test_argparse_errors_are_one_line_usage_errors(tmp_path, capsys, monkeypatch, argv, want):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {want}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_missing_input_file_is_usage_error(workdir, capsys):
    code = main(["train", "--data", "/nonexistent/none.jsonl",
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", "/tmp/never.json"])
    assert code == 2
    capsys.readouterr()


def test_corrupt_jsonl_is_validation_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"query_id": "q0", "broken\n')
    code = main(["evaluate", "--model", str(workdir / "model.json"),
                 "--data", str(bad), "--schema", str(workdir / "data.schema.json")])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("case, want", [("data_not_utf8", 3), ("schema_not_utf8", 3),
                                         ("data_is_a_directory", 2), ("out_is_a_directory", 2)])
def test_undecodable_file_or_directory_ends_in_one_line(workdir, tmp_path, capsys, case, want):
    data, schema, out = workdir / "data.jsonl", workdir / "data.schema.json", tmp_path / "e.json"
    if case == "data_not_utf8":
        raw = data.read_bytes()
        data = tmp_path / "latin1.jsonl"
        data.write_bytes(raw[:3000] + b"\xe9" + raw[3001:])
    elif case == "schema_not_utf8":
        schema = tmp_path / "latin1.schema.json"
        schema.write_bytes(b"\xff" + (workdir / "data.schema.json").read_bytes())
    elif case == "data_is_a_directory":
        data = tmp_path
    else:
        out = tmp_path
    code = main(["evaluate", "--model", str(workdir / "model.json"), "--data", str(data),
                 "--schema", str(schema), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == want
    assert len(err.splitlines()) == 1, err
    assert err.startswith("validation error: " if want == 3 else "usage error: ")
    if case == "data_not_utf8":
        assert str(data) in err


def test_one_parser_serves_every_call_without_carrying_values(workdir, tmp_path, capsys):
    inputs = ["--data", str(workdir / "data.jsonl"), "--schema", str(workdir / "data.schema.json")]
    evaluate = ["evaluate", "--model", str(workdir / "model.json"), *inputs]
    assert main([*evaluate, "--case", "1,2,3,4", "--out", str(tmp_path / "a.json")]) == 0
    assert main([*evaluate, "--out", str(tmp_path / "b.json")]) == 0
    assert main(["perturb", *inputs, "--case", "3", "--out", str(tmp_path / "p.jsonl")]) == 0
    capsys.readouterr()
    assert sirank.cli.build_parser() is sirank.cli.build_parser()
    assert sorted(json.loads((tmp_path / "b.json").read_text())["results"]) == [
        "clean", "invariance_gap_c1200"]
    src = Path(sirank.cli.__file__).resolve().parents[1]
    cmd = [sys.executable, "-m", "sirank.cli", *evaluate, "--case", "1,2,3,4",
           "--out", str(tmp_path / "fresh.json")]
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                   check=True, timeout=600)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_experiment_flag_conflicts_are_usage_errors(workdir, tmp_path, capsys):
    assert main(["experiment", "--out", str(tmp_path / "r")]) == 2
    assert main(["experiment", "--data", str(workdir / "data.jsonl"),
                 "--out", str(tmp_path / "r")]) == 2
    assert main(["experiment", "--data", str(workdir / "data.jsonl"), "--generate",
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "r")]) == 2
    capsys.readouterr()


def _break_checkpoint(path, case):
    if case == "not_json":
        path.write_text(path.read_text()[:200])
        return
    obj = json.loads(path.read_text())
    if case == "no_params":
        del obj["params"]
    elif case == "reshaped_weight":
        obj["params"]["deep_w0"]["shape"] = obj["params"]["deep_w0"]["shape"][::-1]
    elif case == "truncated_weight":
        obj["params"]["deep_w1"]["data"] = obj["params"]["deep_w1"]["data"][:-1]
    elif case == "deep_only_mode":
        obj["mode"] = "deep_only"
    elif case == "bias_of_shape_1":
        obj["params"]["deep_b0"] = {"shape": [1], "data": [0.0]}
    elif case == "huge_integer_weight":
        obj["params"]["deep_b0"]["data"][0] = 10 ** 400
    elif case == "stats_entry_empty":
        obj["stats"]["fixed"]["star_rating"] = []
    elif case == "stats_feature_renamed":
        obj["stats"]["fixed"]["stars"] = obj["stats"]["fixed"].pop("star_rating")
    elif case == "stats_feature_dropped":
        del obj["stats"]["numeric"][next(iter(obj["stats"]["numeric"]))]
    elif case == "huge_widths":
        obj["widths"] = [10 ** 10]  # refused before any allocation
    elif case == "nan_weight":
        obj["params"]["deep_w0"]["data"][0] = float("nan")
    elif case == "infinite_weight":
        obj["params"]["head_b"]["data"][0] = float("-inf")
    elif case == "zero_std":
        obj["stats"]["fixed"]["star_rating"][1] = 0.0
    elif case == "nan_mean":
        obj["stats"]["numeric"][next(iter(obj["stats"]["numeric"]))][0] = float("nan")
    elif case == "float_widths":
        obj["widths"] = [float(w) for w in obj["widths"]]
    elif case == "bool_widths":
        obj["widths"] = [True] * len(obj["widths"])
    elif case == "float_compressor_dim":
        obj["compressor_dim"] = float(obj["compressor_dim"])
    elif case == "bool_compressor_dim":
        obj["compressor_dim"] = True
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("case", ["not_json", "no_params", "reshaped_weight",
                                  "truncated_weight", "deep_only_mode", "bias_of_shape_1",
                                  "huge_integer_weight", "stats_entry_empty",
                                  "stats_feature_renamed", "stats_feature_dropped",
                                  "huge_widths", "nan_weight", "infinite_weight", "zero_std",
                                  "nan_mean", "float_widths", "bool_widths",
                                  "float_compressor_dim", "bool_compressor_dim"])
def test_malformed_checkpoint_is_validation_error(workdir, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text((workdir / "model.json").read_text())
    _break_checkpoint(bad, case)
    code = main(["evaluate", "--model", str(bad), "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validation error: checkpoint")
    assert len(err.splitlines()) == 1


def test_a_checkpoint_layout_is_checked_before_anything_is_allocated(workdir, tmp_path):
    # 40 layers of 500 would take about 80 MB of weights; every array is
    # stored under its right name, one value long, so the shapes refuse it
    obj = json.loads((workdir / "model.json").read_text())
    widths = [500] * 40
    names = [n for n in obj["params"] if n.startswith("emb_")]
    names += [f"deep_{kind}{i}" for i in range(len(widths)) for kind in "wb"]
    names += ["head_w", "head_b", "fs_w", "fs_b", "wide_w"]
    first = names[0]
    want = (f"checkpoint {tmp_path / 'wide.json'} parameter {first!r} has shape [1], "
            f"expected {obj['params'][first]['shape']} for mode 'sir', widths {widths}, "
            f"compressor_dim {obj['compressor_dim']}")
    obj["widths"] = widths
    obj["params"] = {name: {"shape": [1], "data": [0.0]} for name in names}
    (tmp_path / "wide.json").write_text(json.dumps(obj))
    schema = sr.load_schema(workdir / "data.schema.json")
    tracemalloc.start()
    try:
        with pytest.raises(sr.SchemaError) as exc:
            sr.load_checkpoint(tmp_path / "wide.json", schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == want
    assert peak < 5e6


def test_untrained_checkpoints_are_pinned(workdir, tmp_path):
    # sha256 under numpy 2.4.6 of what save_checkpoint writes for a freshly
    # built model of each mode: any change to the initial draws, their order
    # or the parameter layout moves them
    ds = sr.load_dataset(workdir / "data.jsonl", sr.load_schema(workdir / "data.schema.json"))
    got = {}
    for mode in sr.MODES:
        model = sr.build_model(ds.schema, mode=mode, seed=3, stats=fit_stats(ds, mode))
        sr.save_checkpoint(model, tmp_path / f"{mode}.json")
        got[mode] = _sha256((tmp_path / f"{mode}.json").read_bytes())
    assert got == {
        "sir": "e1a356625a4e7cdbc75fc35b134a3ca3aa1841fe1deb903759d0ee5ce8fb7f5c",
        "deep_only": "47ac7f22f67b37b5a8ccdeb543bae9b1341511ac174c1f59dae14ed5c6abc188",
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["head_w", "wide_w"])
def test_overflowing_scores_are_validation_error(workdir, tmp_path, capsys, name):
    # finite parameters whose scores overflow float64
    obj = json.loads((workdir / "model.json").read_text())
    obj["params"][name]["data"] = [1e308] * len(obj["params"][name]["data"])
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(obj))
    code = main(["evaluate", "--model", str(huge), "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"), "--case", "1,2,3,4"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validation error: ") and "scores are not finite" in err
    assert len(err.splitlines()) == 1


def test_train_rejects_dense_weight_beyond_cap(workdir, tmp_path, capsys):
    code = main(["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"), "--widths", str(10 ** 10),
                 "--epochs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ") and "dense weight" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


def _with_big_price(workdir, tmp_path):
    """The corpus with a first price that x1200, as both case 4 and the
    gap's rescale multiply it, takes beyond float64; and that query's id."""
    lines = (workdir / "data.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["items"][0]["scalevariant"]["price"] = 1e306
    bad = tmp_path / "big.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    return bad, record["query_id"]


def test_evaluate_rejects_gap_rescale_beyond_float_range(workdir, tmp_path, capsys):
    bad, query_id = _with_big_price(workdir, tmp_path)
    code = main(["evaluate", "--model", str(workdir / "model.json"), "--data", str(bad),
                 "--schema", str(workdir / "data.schema.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"validation error: query {query_id}: ")
    assert len(err.splitlines()) == 1


def test_a_price_that_case_4_and_the_gap_both_overflow_is_named_by_case_4(workdir, tmp_path,
                                                                          capsys):
    bad, query_id = _with_big_price(workdir, tmp_path)
    code = main(["evaluate", "--model", str(workdir / "model.json"), "--data", str(bad),
                 "--schema", str(workdir / "data.schema.json"), "--case", "4"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == (f"validation error: query {query_id}: case 4 rescales a "
                   "scale-variant value beyond the float64 range\n")
    assert out == ""  # results are printed only once all of them are computed


@pytest.mark.parametrize("command", ["perturb", "evaluate"])
def test_rescale_below_smallest_normal_float_is_validation_error(workdir, tmp_path, capsys,
                                                                 command):
    lines = (workdir / "data.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["exchange_rate"] = 1e-320  # case 2 takes every price below the normal range
    bad = tmp_path / "tiny.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    target = {"perturb": ["--out", str(tmp_path / "p.jsonl")],
              "evaluate": ["--model", str(workdir / "model.json")]}[command]
    code = main([command, "--case", "2", *target, "--data", str(bad),
                 "--schema", str(workdir / "data.schema.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"validation error: query {record['query_id']}: case 2 rescales ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_subnormal_scalevariant_input_is_refused_where_it_is_loaded(workdir, tmp_path, capsys,
                                                                    command):
    lines = (workdir / "data.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    item = record["items"][0]
    item["scalevariant"]["price"] = 5e-324
    bad = tmp_path / "subnormal.jsonl"
    bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    target = {"train": ["--out", str(tmp_path / "m.json"), "--epochs", "2"],
              "evaluate": ["--model", str(workdir / "model.json")]}[command]
    code = main([command, *target, "--data", str(bad),
                 "--schema", str(workdir / "data.schema.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"validation error: query {record['query_id']}: item "
                            f"{item['item_id']}: scale-variant feature 'price' must be finite "
                            "and at least the smallest normal float64, got 5e-324\n")


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_usage_error(workdir, tmp_path, capsys, lr):
    code = main(["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"), "--lr", lr, "--epochs", "2",
                 "--patience", "1"])
    assert code == 2
    assert "learning rate" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_non_finite_sigma_is_usage_error_in_one_line(workdir, tmp_path, capsys, sigma):
    code = main(["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"), "--loss", "softrank", "--sigma", sigma,
                 "--epochs", "2", "--patience", "1"])
    assert code == 2
    want = f"usage error: sigma must be finite and > 0, got {sigma}\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "m.json").exists()


def test_short_runs_without_patience_flag(workdir, tmp_path, capsys):
    # without --patience, patience is the default capped at epochs - 1
    code = main(["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"), "--epochs", "3"])
    assert code == 0
    hist = json.loads((tmp_path / "m.json.history.json").read_text())
    assert hist["train_config"]["patience"] == 2
    code = main(["experiment", "--generate", "--queries", "60", "--epochs", "2",
                 "--loss", "ranknet", "--out", str(tmp_path / "exp")])
    assert code == 0
    report = json.loads((tmp_path / "exp.json").read_text())["report"]
    assert report["meta"]["patience"] == 1
    capsys.readouterr()
    for sub in (["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"), "--out", str(tmp_path / "m1.json")],
                ["experiment", "--generate", "--queries", "60", "--loss", "ranknet",
                 "--out", str(tmp_path / "exp1")]):
        code = main(sub + ["--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "m1.json").exists()


def test_experiment_rejects_bad_epochs_before_generating(tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr(sirank.cli, "generate", lambda config: generated.append(config))
    for flags in (["--epochs", "1"], ["--epochs", "3", "--patience", "3"]):
        code = main(["experiment", "--generate", "--queries", "60", "--loss", "ranknet",
                     "--out", str(tmp_path / "exp")] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: patience ") and len(err.splitlines()) == 1
    assert generated == []
    assert not (tmp_path / "exp.json").exists()


def test_experiment_refuses_a_repeated_loss_before_generating(tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr(sirank.cli, "generate", lambda config: generated.append(config))
    code = main(["experiment", "--generate", "--queries", "60", "--epochs", "2", "--patience", "1",
                 "--seed", "3", "--loss", "ranknet,ranknet", "--out", str(tmp_path / "exp")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "usage error: each loss may appear once, got ['ranknet', 'ranknet']\n"
    assert generated == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, cases", [("evaluate", "1,1,4"), ("perturb", "1,1")])
def test_a_repeated_case_is_a_usage_error(workdir, tmp_path, capsys, command, cases):
    target = {"perturb": ["--out", str(tmp_path / "p.jsonl")],
              "evaluate": ["--model", str(workdir / "model.json"),
                           "--out", str(tmp_path / "e.json")]}[command]
    code = main([command, *target, "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"), "--case", cases])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    want = [int(c) for c in cases.split(",")]
    assert captured.err == f"usage error: each case may appear once, got {want}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["generate"], ["experiment", "--generate"]])
def test_queries_beyond_the_cap_are_a_usage_error(tmp_path, capsys, monkeypatch, command):
    generated = []
    monkeypatch.setattr(sirank.cli, "generate", lambda config: generated.append(config))
    code = main(command + ["--out", str(tmp_path / "out"), "--queries", "100001"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "usage error: num_queries must be in [1, 100000], got 100001\n"
    assert generated == []
    assert list(tmp_path.iterdir()) == []


def test_diverging_experiment_cell_prints_one_line(tmp_path):
    # listnet/sir diverges at this seed; its worker's numpy warnings must not show
    src = Path(sirank.cli.__file__).resolve().parents[1]
    cmd = [sys.executable, "-c", "import sys, sirank.cli; sys.exit(sirank.cli.main(sys.argv[1:]))",
           "experiment", "--generate", "--queries", "300", "--epochs", "2", "--patience", "1",
           "--seed", "34", "--out", str(tmp_path / "rep")]
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert lines and all(re.fullmatch(r"cell \w+/\w+ failed: .+", line) for line in lines), \
        proc.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_exits_with_training_code(workdir, tmp_path, capsys):
    code = main(["train", "--data", str(workdir / "data.jsonl"),
                 "--schema", str(workdir / "data.schema.json"),
                 "--out", str(tmp_path / "m.json"),
                 "--loss", "ranknet", "--lr", "50.0",
                 "--epochs", "2", "--patience", "1", "--seed", "0"])
    assert code == 4
    assert "training failure" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_is_usage_error(tmp_path, capsys, seed):
    code = main(["generate", "--out", str(tmp_path / "d.jsonl"), "--queries", "12",
                 "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: --seed") and len(err.splitlines()) == 1
    assert not (tmp_path / "d.jsonl").exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sirank" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_flag_exits_zero(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sirank") and captured.err == ""
