"""Command-line interface for the closed-loop simulator.

Subcommands:
  simulate             run a closed-loop experiment, write a CSV log and metrics
  generate-trajectory  propagate the pendulum's open-loop trajectory to CSV
  verify               run a named property-verification suite
  sweep                repeat an experiment over values of one config key

Exit codes: 0 success, 1 configuration, usage or output-path error (a
singular controller G included), 2 numerical failure (divergence or a
non-finite signal), 3 verification-suite failure.  Errors print one line on
stderr.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from typing import List, Optional

from . import sim_harness
from .config import ConfigError, SimConfig, load_doc, parse_yaml
from .fts_core import DomainError
from .plant_models import DivergenceError, generate_desired_trajectory
from .sim_harness import (
    CSV_HEADER,
    LOG_WIDTH,
    SUITE_NAMES,
    TRAJECTORY_HEADER,
    CsvOutput,
    ReplacedFile,
    SteadyState,
    metrics_to_text,
    run_closed_loop,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors are a ConfigError (exit 1); argparse would exit with 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ftsmfc",
        description="Finite-time-stable model-free control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop experiment")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--metrics-out",
        help="metrics text file (default: <out> with a .metrics suffix)",
    )

    p = sub.add_parser(
        "generate-trajectory", help="generate the open-loop desired trajectory"
    )
    p.set_defaults(run=_cmd_generate_trajectory)
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--out", required=True, help=f"output CSV path ({TRAJECTORY_HEADER})")

    p = sub.add_parser("verify", help="run a property-verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument(
        "--suite", required=True, choices=list(SUITE_NAMES) + ["all"],
        help="which suite to run",
    )

    p = sub.add_parser("sweep", help="run an experiment over several parameter values")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--param", required=True, help="dotted config key, e.g. controller.scale")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _run(config: SimConfig, out_csv: str, metrics_path: str, preamble: str = "") -> int:
    """Run the closed loop, streaming its CSV log, then write its metrics file and put the
    CSV in place of out_csv, then the metrics file in place of metrics_path; return the
    record count.  A failure before that last rename leaves both files as they were."""
    if os.path.realpath(metrics_path) == os.path.realpath(out_csv):
        raise ConfigError(f"--metrics-out {metrics_path} names the --out file")
    metrics = SteadyState(config.n_steps + 1, config.settle_time, config.bands)
    with CsvOutput(out_csv, CSV_HEADER, LOG_WIDTH) as csv:
        run_closed_loop(config, metrics, csv)
        text = preamble + metrics_to_text(metrics.result())
        csv.finish()  # a formatting failure is raised here, before the metrics file is opened
        with ReplacedFile(metrics_path) as out:
            out.fh.write(text.encode())
            out.fh.flush()  # a full disk fails here, before --out is replaced
            csv.commit()
            out.commit()
    return len(csv)


def _cmd_simulate(args) -> int:
    config = SimConfig.from_yaml(args.config)
    n_records = _run(config, args.out, args.metrics_out or args.out + ".metrics")
    print(f"wrote {n_records} records to {args.out}")
    return EXIT_OK


def _cmd_generate_trajectory(args) -> int:
    config = SimConfig.from_yaml(args.config)
    if config.plant_kind != "pendulum":
        raise ConfigError(
            f"plant.kind: generate-trajectory needs the pendulum, got {config.plant_kind!r}"
        )
    with CsvOutput(args.out, TRAJECTORY_HEADER, 3) as csv:
        generate_desired_trajectory(
            config.trajectory_start, config.T, config.dt, config.plant_params, csv
        )
        csv.commit()
    print(f"wrote {len(csv)} samples to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    ok = True
    for name in suites:
        report = sim_harness.verify_suite(name)  # the first use loads ftsmfc.verify and NumPy
        print(report.format())
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFY


def _set_dotted(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        if node.get(part) is None:  # a null section reads as empty
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"config key {key!r}: {part!r} is not a mapping")
    node[parts[-1]] = value


def _split_values(text: str) -> List[str]:
    """The comma-separated entries of --values; a comma inside [] or {} separates none."""
    entries, depth, start = [], 0, 0
    for i, char in enumerate(text):
        depth += (char in "[{") - (char in "]}")
        if char == "," and depth == 0:
            entries.append(text[start:i])
            start = i + 1
    entries.append(text[start:])
    return [entry.strip() for entry in entries if entry.strip()]


def _cmd_sweep(args) -> int:
    base = load_doc(args.config)
    values = _split_values(args.values)
    if not values:
        raise ConfigError("--values must list at least one value")
    configs = []  # every value is read and checked before anything is written
    for text in values:
        doc = copy.deepcopy(base)
        _set_dotted(doc, args.param, parse_yaml(text, f"--values: cannot parse {text!r}"))
        configs.append(SimConfig.from_dict(doc))
    os.makedirs(args.out, exist_ok=True)
    for i, (text, config) in enumerate(zip(values, configs)):
        safe = text.replace("/", "_")
        out_csv = os.path.join(args.out, f"run_{i:03d}_{safe}.csv")
        _run(config, out_csv, out_csv + ".metrics", f"# {args.param} = {text}\n")
        print(f"{args.param}={text}: wrote {out_csv}")
    return EXIT_OK


def _fail(label: str, exc: Exception, code: int) -> int:
    # one line on stderr: a line break (a path may hold one) becomes a space, other spaces stay
    print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except OSError as exc:
        return _fail("output error", exc, EXIT_CONFIG)
    except (DivergenceError, DomainError) as exc:
        return _fail("numerical failure", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
