"""Batch command-line front end.

Subcommands: simulate, score, train, predict, evaluate, oracle.
Exit codes: 0 success, 2 usage/validation error (an allocation too large
for memory included), 3 numerical failure.
Every command is deterministic given identical inputs and seeds, and no
command writes into its input directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data_io, evaluation, oracles, pipeline
from .pipeline import InterferenceConfig, PerturbedObservation
from .regression import SingularGramError
from .simplex_qp import SimplexQPError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _config_for_data(data_dir: Path, config_arg: str | None) -> InterferenceConfig:
    if config_arg is None and not (data_dir / "config.txt").exists():
        return InterferenceConfig()
    return data_io.parse_config(data_dir / "config.txt" if config_arg is None else config_arg)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = data_io.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    ds = data_io.generate_synthetic(scenario)
    cfg = InterferenceConfig(seed=scenario.seed)
    data_io.write_dataset(ds, args.out, config=cfg)
    print(f"wrote {len(ds.journeys)} days, {len(ds.disruptions)} disruptions to {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    bundle = data_io.load_dataset(data_dir)
    cfg = _config_for_data(data_dir, args.config)
    records = evaluation.score_disruptions(
        bundle.days, bundle.disruptions, bundle.graph, cfg, args.top
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    evaluation.write_scores_csv(out, records)
    print(f"scored {len(records)} disruptions; wrote {out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    bundle = data_io.load_dataset(Path(args.data))
    cfg = _config_for_data(Path(args.data), args.config)
    naturals = pipeline.natural_pool(bundle.days, bundle.disruptions)
    observations = []
    for z, where in zip(bundle.disruptions, bundle.sources, strict=True):
        if z.day not in bundle.days:
            raise ValueError(f"{where}: no journey data for disruption day {z.day}")
        observations.append(PerturbedObservation.from_day_counts(bundle.days[z.day], z))
    if cfg.rho is None:
        cfg = cfg.with_rho(pipeline.resolve_rho(naturals, observations, bundle.graph, cfg))
    model = pipeline.train(naturals, observations, bundle.graph, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.json"
    data_io.write_model(path, model, cfg)
    print(f"trained on {len(observations)} disruptions; wrote {path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    bundle = data_io.load_dataset(Path(args.data))
    model, cfg = data_io.load_model(args.model)
    fields = args.disruption.split(",")
    if len(fields) != 4:
        raise ValueError(
            f"--disruption: disruption spec must be `day,t_start,t_end,roi1;roi2;...`, "
            f"got {args.disruption!r}"
        )
    z_new = data_io.parse_disruption(
        dict(zip(("day", "t_start", "t_end", "roi"), fields)), "--disruption"
    )
    try:
        z_new.validate_against(bundle.graph.n_nodes, *bundle.t_window)
    except ValueError as exc:
        raise ValueError(f"--disruption: {exc}") from None
    naturals = pipeline.natural_pool(bundle.days, bundle.disruptions)
    mixture, samples = pipeline.predict(
        model, naturals, z_new, bundle.graph, cfg, args.n_samples, args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_io.write_csv(
        out / "theta.csv",
        ["component", "theta"],
        ([label, data_io.fmt_float(t)] for label, t in zip(mixture.basis.labels, mixture.theta)),
    )
    summary = {
        "fit_residual": mixture.fit_residual,
        "theta_sum": float(np.sum(mixture.theta)),
        "n_samples": args.n_samples,
        "seed": args.seed,
        "roi": list(z_new.roi),
    }
    (out / "prediction.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    data_io.write_csv(
        out / "samples.csv",
        [f"station{r}" for r in z_new.roi],
        ([data_io.fmt_float(v) for v in row] for row in samples.samples),
    )
    print(f"predicted disruption {args.disruption!r}; wrote {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = data_io.load_dataset(Path(args.data))
    cfg = _config_for_data(Path(args.data), args.config)
    scores, records = evaluation.run_evaluation(
        bundle.days,
        bundle.disruptions,
        bundle.graph,
        cfg,
        out_dir=args.out,
        n_folds=args.folds,
        top_n=args.top,
        seed=args.seed if args.seed is not None else cfg.seed,
        n_samples=args.n_samples,
        rho_mode=args.rho_mode,
    )
    print(
        f"evaluated {len(records)} disruption predictions over {args.folds} folds; wrote {args.out}"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    # checked by name, so a KeyError raised inside a suite is not taken for an unknown suite
    if args.suite != "all" and args.suite not in oracles.SUITES:
        print(
            f"unknown oracle suite {args.suite!r}; choose from "
            f"{sorted(oracles.SUITES) + ['all']}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    all_ok = True
    for case in oracles.run_suite(args.suite):
        status = "PASS" if case.passed else "FAIL"
        print(f"{status} {case.name} ({case.detail})")
        all_ok &= case.passed
    return 0 if all_ok else 1


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_at_least(lo: int):
    """An argparse type: an int no smaller than `lo`."""
    def parse(text: str) -> int:
        value = _int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    value = _int(text)
    if (error := pipeline.seed_error(value)) is not None:
        raise argparse.ArgumentTypeError(error)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Distribution regression for networked systems under disruptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known ground truth")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("score", help="observable/severity scores and top-n selection")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output scores.csv path")
    p.add_argument("--top", type=_int_at_least(0), default=20)
    p.add_argument("--config", default=None, help="config file (defaults to <data>/config.txt)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("train", help="fit the mixture-of-embeddings model on all disruptions")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory for model.json")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict one new disruption and sample from it")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="model.json from `train`")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--disruption", required=True, help="spec `day,t_start,t_end,roi1;roi2;...`"
    )
    p.add_argument("--n-samples", type=_int_at_least(1), default=400)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="full k-fold scoring/training/prediction protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument(
        "--seed", type=_seed, default=None, help="protocol seed (defaults to config seed)"
    )
    p.add_argument("--top", type=_int_at_least(0), default=20)
    p.add_argument("--n-samples", type=_int_at_least(1), default=400)
    p.add_argument("--rho-mode", choices=["per-fold", "global"], default="per-fold")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("oracle", help="run brute-force self-check suites")
    p.add_argument("--suite", required=True, help=" | ".join([*oracles.SUITES, "all"]))
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimplexQPError, SingularGramError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
