"""Command-line harness: dataset generation, training, evaluation,
perturbation, and the full loss-by-mode experiment.

Every subcommand is deterministic given its flags and seed. Output files
carry a provenance block (tool version, seed, input fingerprints) and no
timestamps, so repeat runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .data import (
    Dataset,
    apply_standardization,
    fit_standardization,
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
from .metrics import mean_ndcg
from .perturb import CASE_IDS, DEFAULT_RATE, PerturbationCase, apply_case
from .scoring import (
    DEFAULT_L,
    DEFAULT_WIDTHS,
    MODES,
    dataset_invariance_gap,
    load_checkpoint,
    save_checkpoint,
)
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


def _header_lines(prov: dict) -> list[str]:
    pairs = [f"tool={prov['tool']} {prov['version']}", f"subcommand={prov['subcommand']}",
             f"seed={prov['seed']}"]
    pairs += [f"input:{k}={v}" for k, v in sorted(prov["inputs"].items())]
    return [f"# {p}" for p in pairs]


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
    bad = [c for c in cases if c not in CASE_IDS]
    if bad or not cases:
        raise ConfigError(f"--case values must be among {list(CASE_IDS)}, got {text!r}")
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


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        loss=args.loss,
        mode=args.mode,
        max_epochs=args.epochs,
        patience=_patience(args),
        learning_rate=args.lr,
        sigma=args.sigma,
        seed=args.seed,
        widths=args.widths,
        compressor_dim=args.L,
    )


def cmd_train(args) -> int:
    ds = _load_inputs(args)
    cfg = _train_config(args)
    tr_raw, va_raw, _ = split_holdout(ds, seed=args.seed)
    stats = fit_standardization(tr_raw, ds.schema,
                                include_scalevariant=(cfg.mode == "deep_only"))
    model, history = train(apply_standardization(tr_raw, stats), va_raw, cfg)
    prov = _provenance("train", args.seed, {"data": args.data, "schema": args.schema})
    save_checkpoint(model, args.out, provenance=prov)
    _write_json(str(args.out) + ".history.json",
                {"provenance": prov, "history": history.to_json(),
                 "train_config": {"loss": cfg.loss, "mode": cfg.mode,
                                  "learning_rate": cfg.resolved_learning_rate,
                                  "max_epochs": cfg.max_epochs, "patience": cfg.patience,
                                  "sigma": cfg.sigma, "widths": list(cfg.widths),
                                  "compressor_dim": cfg.compressor_dim}})
    best = history.val_ndcg[history.best_epoch]
    print(f"trained {cfg.loss} ({cfg.mode}) for {len(history.val_ndcg)} epochs, "
          f"stopped by {history.stopping_reason}, best val NDCG {best:.4f}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    schema = load_schema(args.schema)
    model = load_checkpoint(args.model, schema)
    ds = load_dataset(args.data, schema)

    results = {"clean": mean_ndcg(model, ds).to_json()}
    print(f"clean mean NDCG: {results['clean']['mean']:.6f} over {len(ds)} queries")
    for cid in (args.case or ()):
        case_ds = apply_case(ds, PerturbationCase(cid))
        res = mean_ndcg(model, case_ds)
        results[f"case{cid}"] = res.to_json()
        print(f"case {cid} mean NDCG: {res.mean:.6f}")
    if model.mode == "sir":
        gap = dataset_invariance_gap(model, ds, DEFAULT_RATE)
        results["invariance_gap_c1200"] = gap
        print(f"invariance gap at c={DEFAULT_RATE:g}: {gap:.3e}")

    if args.out:
        prov = _provenance("evaluate", args.seed,
                           {"model": args.model, "data": args.data, "schema": args.schema})
        _write_json(args.out, {"provenance": prov, "results": results})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_perturb(args) -> int:
    ds = _load_inputs(args)
    if len(args.case) != 1:
        raise ConfigError("perturb applies exactly one --case per run")
    case = PerturbationCase(args.case[0])
    out_ds = apply_case(ds, case)
    save_dataset(out_ds, args.out)
    prov = _provenance("perturb", args.seed, {"data": args.data, "schema": args.schema})
    _write_json(str(args.out) + ".meta.json", {
        "provenance": prov,
        "case": case.case_id,
        "targets": list(case.targets),
        "rate": case.rate,
        "n_queries": len(out_ds),
        "dataset_fingerprint": _file_fingerprint(args.out),
    })
    print(f"applied case {case.case_id} to {len(out_ds)} queries, wrote {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.data and args.generate:
        raise ConfigError("pass either --data or --generate, not both")
    cfg = ExperimentConfig(seed=args.seed, losses=args.loss or LOSS_NAMES,
                           max_epochs=args.epochs, patience=_patience(args),
                           learning_rate=args.lr, sigma=args.sigma,
                           widths=args.widths, compressor_dim=args.L)
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
    header = "\n".join(_header_lines(prov)) + "\n"
    _write_json(str(args.out) + ".json", {"provenance": prov, "report": report.to_json()})
    with open(str(args.out) + ".txt", "w") as fh:
        fh.write(header + render_text(report))
    with open(str(args.out) + ".csv", "w") as fh:
        fh.write(header + render_csv(report))
    print(render_text(report))
    print(f"report written to {args.out}.json / .txt / .csv")

    failed = [c for c in report.cells if c.error]
    for cell in failed:
        print(f"cell {cell.loss}/{cell.mode} failed: {cell.error}", file=sys.stderr)
    return EXIT_TRAINING if failed else EXIT_OK


def cmd_report(args) -> int:
    with open(args.data) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{args.data}: not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "report" not in payload:
        raise ValidationError(f"{args.data}: not an experiment report file")
    report = ExperimentReport.from_json(payload["report"])

    text = render_text(report)
    if args.out:
        header = "\n".join(_header_lines(
            _provenance("report", args.seed, {"data": args.data}))) + "\n"
        with open(str(args.out) + ".txt", "w") as fh:
            fh.write(header + text)
        with open(str(args.out) + ".csv", "w") as fh:
            fh.write(header + render_csv(report))
        print(f"rendered {args.out}.txt / {args.out}.csv")
    else:
        print(text)
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, SchemaError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
