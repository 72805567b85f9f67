"""Command-line interface for the closed-loop simulator.

Subcommands:
  simulate             run a closed-loop experiment, write a CSV log and metrics
  generate-trajectory  propagate the open-loop trajectory generator to CSV
  verify               run a named property-verification suite
  sweep                repeat an experiment over values of one config key

Exit codes: 0 success, 1 configuration error (a singular controller G
included), 2 numerical failure (divergence or a non-finite signal), 3
verification-suite failure.  Errors print one line on stderr.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from typing import List, Optional

import numpy as np
import yaml

from .fts_core import DomainError
from .plant_models import DivergenceError, generate_desired_trajectory
from .sim_harness import (
    SUITE_NAMES,
    ConfigError,
    SimConfig,
    compute_metrics,
    load_doc,
    metrics_to_text,
    run_closed_loop,
    verify_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftsmfc",
        description="Finite-time-stable model-free control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop experiment")
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--metrics-out",
        help="metrics text file (default: <out> with a .metrics suffix)",
    )

    p = sub.add_parser(
        "generate-trajectory", help="generate the open-loop desired trajectory"
    )
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--out", required=True, help="output CSV path (columns t,x_d,theta_d)")

    p = sub.add_parser("verify", help="run a property-verification suite")
    p.add_argument(
        "--suite", required=True, choices=list(SUITE_NAMES) + ["all"],
        help="which suite to run",
    )

    p = sub.add_parser("sweep", help="run an experiment over several parameter values")
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--param", required=True, help="dotted config key, e.g. controller.scale")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _run(config: SimConfig, out_csv: str, metrics_path: str, preamble: str = "") -> int:
    """Run the closed loop, write its CSV log and metrics file; return the record count."""
    log = run_closed_loop(config)
    log.to_csv(out_csv)
    try:
        metrics = compute_metrics(log, config.settle_time, config.bands)
    except ValueError:
        metrics = {}
    with open(metrics_path, "w") as fh:
        fh.write(preamble + metrics_to_text(metrics))
    return len(log)


def _cmd_simulate(args) -> int:
    config = SimConfig.from_yaml(args.config)
    n_records = _run(config, args.out, args.metrics_out or args.out + ".metrics")
    print(f"wrote {n_records} records to {args.out}")
    return EXIT_OK


def _cmd_generate_trajectory(args) -> int:
    config = SimConfig.from_yaml(args.config)
    samples = generate_desired_trajectory(
        config.trajectory_start, config.T, config.dt, config.plant_params
    )
    with open(args.out, "w", newline="\n") as fh:
        fh.write("t,x_d,theta_d\n")
        for k, row in enumerate(samples):
            fh.write(f"{k * config.dt:.17g},{row[0]:.17g},{row[1]:.17g}\n")
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    ok = True
    for name in suites:
        report = verify_suite(name)
        print(report.format())
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _set_dotted(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config key {key!r}: {part!r} is not a mapping")
    node[parts[-1]] = value


def _cmd_sweep(args) -> int:
    base = load_doc(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    os.makedirs(args.out, exist_ok=True)
    for i, text in enumerate(values):
        doc = copy.deepcopy(base)
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--values: cannot parse {text!r}: {exc}") from exc
        _set_dotted(doc, args.param, value)
        config = SimConfig.from_dict(doc)
        safe = text.replace("/", "_")
        out_csv = os.path.join(args.out, f"run_{i:03d}_{safe}.csv")
        _run(config, out_csv, out_csv + ".metrics", f"# {args.param} = {text}\n")
        print(f"{args.param}={text}: wrote {out_csv}")
    return EXIT_OK


def _fail(label: str, exc: Exception, code: int) -> int:
    # one line on stderr, also for the multi-line messages of YAML errors
    print(f"{label}: {' '.join(str(exc).split())}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "generate-trajectory": _cmd_generate_trajectory,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except (DivergenceError, DomainError, np.linalg.LinAlgError) as exc:
        return _fail("numerical failure", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
