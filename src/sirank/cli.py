"""Command-line harness: dataset generation, training, evaluation,
perturbation, and the full loss-by-mode experiment.

Every subcommand is deterministic given its flags and seed. Output files
carry a provenance block (tool version, seed, input fingerprints) and no
timestamps, so repeat runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict

from . import __version__
from .data import (
    Dataset,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    split_holdout,
)
from .errors import (
    ConfigError,
    DomainError,
    SchemaError,
    TrainingError,
    ValidationError,
)
from .generator import GeneratorConfig, generate
from .losses import DEFAULT_SOFTRANK_SIGMA, LOSS_NAMES
from .metrics import evaluate_scenarios
from .perturb import CASE_IDS, DEFAULT_RATE, DEFAULT_TARGETS, PerturbationCase, apply_case
from .scoring import DEFAULT_L, DEFAULT_WIDTHS, MODES, load_checkpoint, save_checkpoint
from .trainer import (
    DEFAULT_MAX_EPOCHS,
    DEFAULT_PATIENCE,
    ExperimentConfig,
    ExperimentReport,
    TrainConfig,
    render_csv,
    render_text,
    run_experiment,
    train,
)

DEFAULT_SEED = 0
DEFAULT_QUERIES = 500

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_TRAINING = 4


def _file_fingerprint(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _provenance(subcommand: str, seed: int, inputs: dict[str, str]) -> dict:
    return {
        "tool": "sirank",
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "inputs": {name: _file_fingerprint(path) for name, path in inputs.items()},
    }


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_tables(out, prov: dict, report: ExperimentReport):
    """The report's table and CSV at ``out``.txt and .csv, under ``#`` provenance lines."""
    pairs = [f"tool={prov['tool']} {prov['version']}", f"subcommand={prov['subcommand']}",
             f"seed={prov['seed']}"]
    pairs += [f"input:{k}={v}" for k, v in sorted(prov["inputs"].items())]
    header = "".join(f"# {p}\n" for p in pairs)
    for ext, render in ((".txt", render_text), (".csv", render_csv)):
        with open(str(out) + ext, "w") as fh:
            fh.write(header + render(report))


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_widths(text: str) -> tuple[int, ...]:
    widths = _parse_ints(text, "--widths")
    if not widths:
        raise ConfigError("--widths needs at least one layer width")
    return widths


def _parse_seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(f"--seed expects an integer >= 0, got {text!r}")
    return int(text)


def _parse_cases(text: str) -> tuple[int, ...]:
    cases = _parse_ints(text, "--case")
    if not cases or any(c not in CASE_IDS for c in cases):
        raise ConfigError(f"--case values must be among {list(CASE_IDS)}, got {text!r}")
    if len(set(cases)) != len(cases):
        raise ConfigError(f"each case may appear once, got {list(cases)}")
    return cases


def _parse_losses(text: str) -> tuple[str, ...]:
    losses = tuple(p.strip() for p in text.split(",") if p.strip())
    bad = [l for l in losses if l not in LOSS_NAMES]
    if bad:
        raise ConfigError(f"unknown losses {bad}, expected among {list(LOSS_NAMES)}")
    return losses


def _patience(args) -> int:
    """--patience, or without it the default capped below --epochs."""
    if args.patience is not None:
        return args.patience
    return min(DEFAULT_PATIENCE, args.epochs - 1)


def _schedule(args) -> dict:
    """The schedule fields of the flags that train and experiment share."""
    return {"max_epochs": args.epochs, "patience": _patience(args), "learning_rate": args.lr,
            "sigma": args.sigma, "widths": args.widths, "compressor_dim": args.L}


def _load_inputs(args) -> Dataset:
    schema = load_schema(args.schema)
    return load_dataset(args.data, schema)


# --- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(num_queries=args.queries, seed=args.seed)
    ds = generate(cfg)
    save_dataset(ds, args.out)
    schema_path = args.schema or (str(args.out).rsplit(".", 1)[0] + ".schema.json")
    save_schema(ds.schema, schema_path)
    prov = _provenance("generate", args.seed, {})
    meta = {
        "provenance": prov,
        "n_queries": len(ds),
        "schema_fingerprint": ds.schema.fingerprint(),
        "dataset_fingerprint": _file_fingerprint(args.out),
        "generator_config": cfg.to_json(),
    }
    _write_json(str(args.out) + ".meta.json", meta)
    print(f"wrote {len(ds)} queries to {args.out} "
          f"(fingerprint {meta['dataset_fingerprint']}), schema to {schema_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = _load_inputs(args)
    cfg = TrainConfig(loss=args.loss, mode=args.mode, seed=args.seed, **_schedule(args))
    tr_raw, va_raw, _ = split_holdout(ds, seed=args.seed)
    model, history = train(tr_raw, va_raw, cfg)
    prov = _provenance("train", args.seed, {"data": args.data, "schema": args.schema})
    save_checkpoint(model, args.out, provenance=prov)
    train_config = asdict(cfg) | {"learning_rate": cfg.resolved_learning_rate}
    del train_config["seed"]
    _write_json(str(args.out) + ".history.json",
                {"provenance": prov, "history": asdict(history), "train_config": train_config})
    best = history.val_ndcg[history.best_epoch]
    print(f"trained {cfg.loss} ({cfg.mode}) for {len(history.val_ndcg)} epochs, "
          f"stopped by {history.stopping_reason}, best val NDCG {best:.4f}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    schema = load_schema(args.schema)
    model = load_checkpoint(args.model, schema)
    ds = load_dataset(args.data, schema)
    clean, cases, gap = evaluate_scenarios(model, ds, args.case or (), gap=model.mode == "sir")

    results = {"clean": clean.to_json()} | {f"case{cid}": res.to_json()
                                             for cid, res in cases.items()}
    print(f"clean mean NDCG: {clean.mean:.6f} over {len(ds)} queries")
    for cid in args.case or ():
        print(f"case {cid} mean NDCG: {cases[cid].mean:.6f}")
    if gap is not None:
        results["invariance_gap_c1200"] = gap
        print(f"invariance gap at c={DEFAULT_RATE:g}: {gap:.3e}")

    if args.out:
        prov = _provenance("evaluate", args.seed,
                           {"model": args.model, "data": args.data, "schema": args.schema})
        _write_json(args.out, {"provenance": prov, "results": results})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_perturb(args) -> int:
    if len(args.case) != 1:
        raise ConfigError("perturb applies exactly one --case per run")
    ds = _load_inputs(args)
    case = PerturbationCase(args.case[0])
    out_ds = apply_case(ds, case)
    save_dataset(out_ds, args.out)
    prov = _provenance("perturb", args.seed, {"data": args.data, "schema": args.schema})
    _write_json(str(args.out) + ".meta.json", {
        "provenance": prov,
        "case": case.case_id,
        "targets": list(DEFAULT_TARGETS),
        "rate": DEFAULT_RATE,
        "n_queries": len(out_ds),
        "dataset_fingerprint": _file_fingerprint(args.out),
    })
    print(f"applied case {case.case_id} to {len(out_ds)} queries, wrote {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.data and args.generate:
        raise ConfigError("pass either --data or --generate, not both")
    cfg = ExperimentConfig(seed=args.seed, losses=args.loss or LOSS_NAMES, **_schedule(args))
    inputs: dict[str, str] = {}
    if args.data:
        if not args.schema:
            raise ConfigError("--data requires --schema")
        ds = _load_inputs(args)
        inputs = {"data": args.data, "schema": args.schema}
    elif args.generate:
        ds = generate(GeneratorConfig(num_queries=args.queries, seed=args.seed))
    else:
        raise ConfigError("experiment needs --data or --generate")
    report = run_experiment(ds, cfg)

    prov = _provenance("experiment", args.seed, inputs)
    _write_json(str(args.out) + ".json", {"provenance": prov, "report": asdict(report)})
    _write_tables(args.out, prov, report)
    print(render_text(report))
    print(f"report written to {args.out}.json / .txt / .csv")

    failed = [c for c in report.cells if c.error]
    for cell in failed:
        print(f"cell {cell.loss}/{cell.mode} failed: {cell.error}", file=sys.stderr)
    return EXIT_TRAINING if failed else EXIT_OK


def cmd_report(args) -> int:
    with open(args.data, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{args.data}: not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "report" not in payload:
        raise ValidationError(f"{args.data}: not an experiment report file")
    report = ExperimentReport.from_json(payload["report"])

    if args.out:
        _write_tables(args.out, _provenance("report", args.seed, {"data": args.data}), report)
        print(f"rendered {args.out}.txt / {args.out}.csv")
    else:
        print(render_text(report))
    return EXIT_OK


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Its own errors, like a missing flag or a bad choice, end as one-line usage errors."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one parser a process: each parse_args makes a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sirank",
        description="Scale-invariant ranking models: synthetic data, training, "
                    "perturbation experiments.")
    parser.add_argument("--version", action="version", version=f"sirank {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common_seed(p):
        p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                       help=f"global seed (default {DEFAULT_SEED})")

    def train_flags(p):
        """Training flags shared by train and experiment."""
        p.add_argument("--epochs", type=int, default=DEFAULT_MAX_EPOCHS, help="max epochs")
        p.add_argument("--patience", type=int, default=None,
                       help=f"epochs without validation gain before stopping "
                            f"(default: {DEFAULT_PATIENCE}, at most epochs - 1)")
        p.add_argument("--lr", type=float, default=None,
                       help="learning rate (default: per-loss)")
        p.add_argument("--sigma", type=float, default=DEFAULT_SOFTRANK_SIGMA,
                       help="smoothing width for the softrank loss")
        p.add_argument("--widths", type=_parse_widths, default=DEFAULT_WIDTHS,
                       help="deep tower widths, comma separated")
        p.add_argument("--L", type=int, default=DEFAULT_L,
                       help="query compressor output dimension")

    p = sub.add_parser("generate", help="write a synthetic JSONL dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    p.add_argument("--schema", default=None, help="where to write the schema JSON")
    common_seed(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss", default="ranknet", help="ranking loss name")
    p.add_argument("--mode", choices=MODES, default="sir")
    train_flags(p)
    common_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="mean NDCG of a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--case", "--cases", type=_parse_cases, default=None,
                   help="perturbation cases to evaluate, e.g. 1,2,3,4")
    p.add_argument("--out", default=None, help="optional JSON output path")
    common_seed(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="apply one perturbation case to a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--case", type=_parse_cases, required=True)
    p.add_argument("--out", required=True)
    common_seed(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("experiment", help="train the full loss-by-mode grid and report")
    p.add_argument("--data", default=None)
    p.add_argument("--schema", default=None)
    p.add_argument("--generate", action="store_true",
                   help="generate the dataset in-process instead of reading --data")
    p.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--loss", type=_parse_losses, default=None,
                   help="comma-separated subset of losses (default: all)")
    train_flags(p)
    common_seed(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="re-render a saved experiment report")
    p.add_argument("--data", required=True, help="experiment report JSON")
    p.add_argument("--out", default=None, help="output path prefix")
    common_seed(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help and --version
        return EXIT_OK
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, SchemaError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:  # a missing file, a directory given as a file, ...
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
