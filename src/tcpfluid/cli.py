"""Command-line entry point.

Subcommands pick the experiment mode; every config key doubles as a flag
that overrides the config file.  Exit codes: 0 success, 2 configuration
error or a file that cannot be read or written (stdout among them), 3
numeric failure (fixed point, integration or certificate).
"""

from __future__ import annotations

import argparse
import os
import sys

from .dde import IntegrationError
from .experiment import (
    KEY_PARSERS,
    MODES,
    ConfigError,
    build_config,
    read_config_file,
    run_experiment,
)
from .fixedpoint import SolverError
from .stability import CertificateError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpfluid",
        description="Fluid-model and event-driven studies of loss-based congestion control.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for mode, (name, help_text) in MODES.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(mode=mode)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        for key in KEY_PARSERS:
            if key == "mode":
                continue
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=f"key_{key}", metavar="V", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw: dict[str, object] = {}
        if args.config:
            raw.update(read_config_file(args.config))
        for key in KEY_PARSERS:
            value = getattr(args, f"key_{key}", None)
            if value is not None:
                raw[key] = value
        raw["mode"] = args.mode
        config = build_config(raw)
        result = run_experiment(config, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, IntegrationError, CertificateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    wrote = (f"wrote {name}: {path}" for name, path in sorted(result.artifacts.items()))
    try:
        print(result.summary, *wrote, sep="\n", flush=True)
    except OSError as exc:
        # A closed stdout: the run's files stay, and the exit flush goes to devnull.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: could not write stdout: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
