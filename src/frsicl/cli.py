"""Command line entry point.

Subcommands: run, sweep, train-ppo, eval-ppo, replay. Exit codes: 0 on
success, 1 on validation errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import ConfigError, WorldConfig, load_world_config
from .env import init_world
from .harness import (POLICY_NAMES, ExperimentSpec, OutputDir, ReplayDivergence,
                      replay_steps_csv, run_experiment, sweep_sensors)
from .icl import IclConfig
from .icl.backends import MOCK_STRATEGIES
from .ppo import PpoConfig, evaluate, load_params, save_params, train, write_curve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _parse_list(flag: str, text: str, kind=str) -> list:
    """The entries of a comma list, at least one; empty entries are skipped."""
    try:
        items = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        items = None
    if items:
        return items
    raise ConfigError(f"{flag} expects one value or a comma list, got {text!r}")


def _parse_seeds(text: str) -> List[int]:
    seeds = _parse_list("--seed", text, int)
    negative = [seed for seed in seeds if seed < 0]
    if negative:
        raise ConfigError(f"--seed must be >= 0, got {negative[0]}")
    return seeds


def _single_seed(text: str) -> int:
    """train-ppo and eval-ppo take one seed, not a list."""
    seeds = _parse_seeds(text)
    if len(seeds) > 1:
        raise ConfigError(f"--seed takes one seed here, got {text!r}")
    return seeds[0]


def _config_from_args(args) -> WorldConfig:
    """The --config file, or the defaults when none is given."""
    return load_world_config(args.config) if args.config else WorldConfig()


def _replay_config(args):
    """The --config file, else the world.json written beside the steps CSV,
    else the defaults; returns the config and where it came from."""
    if args.config:
        return load_world_config(args.config), args.config
    beside = os.path.join(os.path.dirname(args.steps_csv), "world.json")
    if os.path.exists(beside):
        return load_world_config(beside), beside
    return WorldConfig(), "the default config"


def _icl_from_args(args, policy: str) -> IclConfig:
    if policy == "icl" and not (args.mock_llm or args.llm_endpoint):
        raise ConfigError(
            "icl policy needs a backend: pass --llm-endpoint URL for a "
            f"real endpoint or --mock-llm {{{','.join(MOCK_STRATEGIES)}}} "
            "to run offline")
    backend = args.llm_endpoint or f"mock:{args.mock_llm or 'max-aoi'}"
    return IclConfig(model=args.llm_model, backend=backend, timeout_s=args.llm_timeout)


def _add_common(parser):
    parser.add_argument("--config", help="world config JSON file")
    parser.add_argument("--seed", default="0",
                        help="replicate seed or comma-separated list")
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--llm-model", default=IclConfig.model)
    parser.add_argument("--llm-timeout", type=float, default=IclConfig.timeout_s)
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument("--llm-endpoint",
                         help="OpenAI-compatible endpoint URL, http:// or https://")
    backend.add_argument("--mock-llm", choices=MOCK_STRATEGIES,
                         help="offline LLM backend strategy")


def build_parser() -> _Parser:
    parser = _Parser(prog="frsicl",
                     description="UAV sensor-data-collection simulator with "
                                 "AoI-minimizing schedulers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p_run.add_argument("--ppo-params", help="trained parameters file for --policy ppo")

    p_sweep = sub.add_parser("sweep", help="sensor-count sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--policies", default="icl,nearest",
                         help="comma-separated policy list")
    p_sweep.add_argument("--counts", default="5,10,15",
                         help="comma-separated sensor counts")
    p_sweep.add_argument("--ppo-params")

    p_train = sub.add_parser("train-ppo", help="train the PPO baseline")
    p_train.add_argument("--config")
    p_train.add_argument("--seed", default="0")
    p_train.add_argument("--episodes", type=int, default=PpoConfig.episodes)
    p_train.add_argument("--out-dir", default="out")

    p_eval = sub.add_parser("eval-ppo", help="evaluate trained PPO parameters")
    p_eval.add_argument("--config")
    p_eval.add_argument("--seed", default="0")
    p_eval.add_argument("--params", required=True)
    p_eval.add_argument("--stochastic", action="store_true",
                        help="sample actions instead of greedy argmax")

    p_replay = sub.add_parser("replay",
                              help="re-simulate a steps.csv and verify it")
    p_replay.add_argument("--config")
    p_replay.add_argument("--steps-csv", required=True)
    return parser


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            spec = ExperimentSpec(
                world=cfg, policy=args.policy, seeds=_parse_seeds(args.seed),
                out_dir=args.out_dir, icl=_icl_from_args(args, args.policy),
                ppo_params_path=args.ppo_params)
            for s in run_experiment(spec):
                print(f"{s.run_id}: time_avg_aoi_s={s.time_avg_aoi_s:.6g} "
                      f"success_rate={s.success_rate:.6g}")
            return EXIT_OK

        if args.command == "sweep":
            cfg = _config_from_args(args)
            policies = _parse_list("--policies", args.policies)
            counts = _parse_list("--counts", args.counts, int)
            icl_cfg = _icl_from_args(args, "icl" if "icl" in policies else "")
            spec = ExperimentSpec(
                world=cfg, policy=policies[0], seeds=_parse_seeds(args.seed),
                out_dir=args.out_dir, icl=icl_cfg,
                ppo_params_path=args.ppo_params)
            for n, policy, mean, std, count in sweep_sensors(spec, policies, counts):
                print(f"n_sensors={n} policy={policy} mean_aoi_s={mean:.6g} "
                      f"std_aoi_s={std:.6g} n_runs={count}")
            return EXIT_OK

        if args.command == "train-ppo":
            cfg = _config_from_args(args)
            seed = _single_seed(args.seed)
            ppo_cfg = PpoConfig(episodes=args.episodes,
                                steps_per_episode=cfg.n_steps)
            with OutputDir(args.out_dir) as out:
                result = train(cfg, ppo_cfg, seed)
                write_curve(result.curve, out.staged("learning_curve.csv"))
                save_params(result.params, out.staged("ppo_params.bin"))
            params_path = os.path.join(args.out_dir, "ppo_params.bin")
            print(f"trained {args.episodes} episodes; params -> {params_path}")
            return EXIT_OK

        if args.command == "eval-ppo":
            cfg = _config_from_args(args)
            seed = _single_seed(args.seed)
            params = load_params(args.params)
            world = init_world(cfg, seed=seed)
            summary = evaluate(params, world, greedy=not args.stochastic,
                               run_id=f"ppo-s{seed}")
            print(f"{summary.run_id}: time_avg_aoi_s={summary.time_avg_aoi_s:.6g} "
                  f"success_rate={summary.success_rate:.6g}")
            return EXIT_OK

        if args.command == "replay":
            cfg, source = _replay_config(args)
            n_runs = replay_steps_csv(args.steps_csv, cfg)
            print(f"replay ok: {n_runs} run(s) verified with {source}")
            return EXIT_OK

        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ReplayDivergence, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
