"""Fuzz the command line: mutate valid records, schemas, checkpoints and
flags, and require that ``sirank.cli.main`` ends every call with one of its
documented exit codes instead of raising.

Sizes stay small on purpose: no mutated flag asks for more than a handful of
queries, layers or epochs, so no example allocates much memory.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sirank.cli import main

EXIT_CODES = (0, 2, 3, 4)

# what a hand-edited or corrupted JSON file may hold instead of the right value
ODD_VALUES = [None, True, False, 0, -1, 1, 2, 3, 24.0, 0.5, -2.5, 1e308, 5e-324,
              10 ** 400, float("nan"), float("inf"), "", "x", "price", [], [1.0], [[1]],
              {}, {"name": "x"}]

# what a flag may be given instead of the right value
ODD_FLAGS = ["0", "-1", "1", "2", "3", "0.5", "nan", "inf", "-inf", "1e400", "", "x",
             "1,0", ",", "4,4", "5", "sir", "deep_only", "ranknet", "listnet,softrank",
             "/nonexistent/none.json"]

# lines a damaged JSONL file may hold
ODD_LINES = ["[]", "null", "7", "{", '"q"', "{}", '{"query_id": "q"}']

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small valid corpus, its schema, one checkpoint per mode and one
    experiment report; mutated copies go to ``bad.*`` next to them."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(root / name) for name in (
        "data.jsonl", "data.schema.json", "sir.json", "deep_only.json", "exp", "out")}
    assert main(["generate", "--out", paths["data.jsonl"], "--queries", "30",
                 "--seed", "3"]) == 0
    for mode in ("sir", "deep_only"):
        assert main(["train", "--data", paths["data.jsonl"],
                     "--schema", paths["data.schema.json"], "--out", paths[f"{mode}.json"],
                     "--mode", mode, "--epochs", "2", "--widths", "4", "--L", "2"]) == 0
    assert main(["experiment", "--generate", "--queries", "20", "--epochs", "2",
                 "--loss", "ranknet", "--widths", "4", "--L", "2",
                 "--out", paths["exp"]]) == 0
    paths["report.json"] = paths["exp"] + ".json"
    paths["bad"] = str(root / "bad")
    return paths


def commands(p, data, schema, model):
    """One argv per subcommand, every one of them valid for valid inputs."""
    return {
        "train": ["train", "--data", data, "--schema", schema, "--out", p["out"],
                  "--loss", "ranknet", "--mode", "sir", "--epochs", "2", "--patience", "1",
                  "--lr", "0.01", "--sigma", "1.0", "--widths", "4", "--L", "2",
                  "--seed", "0"],
        "evaluate": ["evaluate", "--model", model, "--data", data, "--schema", schema,
                     "--case", "1,2,3,4", "--out", p["out"]],
        "perturb": ["perturb", "--data", data, "--schema", schema, "--case", "3",
                    "--out", p["out"]],
        "generate": ["generate", "--out", p["out"], "--queries", "12", "--seed", "1"],
        "experiment": ["experiment", "--generate", "--queries", "20", "--epochs", "2",
                       "--loss", "ranknet", "--widths", "4", "--L", "2", "--out", p["out"]],
        "report": ["report", "--data", p["report.json"], "--out", p["out"]],
    }


def json_paths(node, prefix=()):
    """Every key path in a parsed JSON value, the value itself included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_paths(value, prefix + (i,))


def mutate(data, obj):
    """Replace or delete the value at one key path of ``obj``."""
    path = data.draw(st.sampled_from(list(json_paths(obj))))
    value = data.draw(st.sampled_from(ODD_VALUES))
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    return obj


def check(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(out):
        code = main(argv)
    err = out.getvalue()
    assert code in EXIT_CODES, (argv, code, err)
    if code == 3:
        assert err.startswith("validation error: ") and len(err.splitlines()) == 1, err


@SETTINGS
@given(data=st.data())
def test_mutated_records_end_in_an_exit_code(files, data):
    lines = open(files["data.jsonl"]).read().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["mutate", "mutate", "mutate", "drop", "repeat",
                                        "truncate", "odd_line"]))
    if action == "mutate":
        lines[i] = json.dumps(mutate(data, json.loads(lines[i])))
    elif action == "drop":
        del lines[i]
    elif action == "repeat":
        lines.insert(i, lines[i])
    elif action == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
    else:
        lines[i] = data.draw(st.sampled_from(ODD_LINES))
    bad = files["bad"] + ".jsonl"
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    mode = data.draw(st.sampled_from(["sir", "deep_only"]))
    argv = commands(files, bad, files["data.schema.json"], files[f"{mode}.json"])
    check(argv[data.draw(st.sampled_from(["train", "evaluate", "perturb"]))])


@SETTINGS
@given(data=st.data())
def test_mutated_schemas_end_in_an_exit_code(files, data):
    obj = mutate(data, json.load(open(files["data.schema.json"])))
    bad = files["bad"] + ".schema.json"
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    argv = commands(files, files["data.jsonl"], bad, files["sir.json"])
    check(argv[data.draw(st.sampled_from(["train", "evaluate", "perturb"]))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(data=st.data())
def test_mutated_checkpoints_end_in_an_exit_code(files, data):
    mode = data.draw(st.sampled_from(["sir", "deep_only"]))
    obj = mutate(data, json.load(open(files[f"{mode}.json"])))
    bad = files["bad"] + ".model.json"
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    check(commands(files, files["data.jsonl"], files["data.schema.json"], bad)["evaluate"])


@SETTINGS
@given(data=st.data())
def test_mutated_flags_end_in_an_exit_code(files, data):
    argvs = commands(files, files["data.jsonl"], files["data.schema.json"], files["sir.json"])
    argv = argvs[data.draw(st.sampled_from(sorted(argvs)))]
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--") and i + 1 < len(argv)
             and not argv[i + 1].startswith("--") and arg != "--out"]
    i = data.draw(st.sampled_from(flags)) + 1
    action = data.draw(st.sampled_from(["replace", "replace", "replace", "drop", "unknown"]))
    if action == "replace":
        argv[i] = data.draw(st.sampled_from(ODD_FLAGS))
    elif action == "drop":
        del argv[i - 1:i + 1]
    else:
        argv.insert(i + 1, "--colour")
    check(argv)
