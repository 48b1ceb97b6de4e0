"""Command-line surface: simulate, serve, client, sweep, gradcheck.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
configuration failure.  Logs go to stderr (FLC_LOG={error|info|debug});
data goes to files or stdout only.  Before running, every command echoes the
merged effective config to stderr so the run is reproducible from its output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from . import rng
from .config import RunConfig, config_to_dict, load_config
from .errors import ConfigError, FlcoreError
from .models import MODEL_KINDS, Batch, ModelSpec, grad_check, param_count
from .runner import epsilon_sweep, metrics_line, train, write_sweep_csv
from .transport import TcpServerCarrier
from .worker import run_client

log = logging.getLogger("flcore.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("FLC_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s", force=True
    )
    if name not in _LOG_LEVELS and "FLC_LOG" in os.environ:
        log.warning("unknown FLC_LOG value %r; using info", name)


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not 0 < number < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
    return number


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    print("effective config: " + json.dumps(config_to_dict(cfg), sort_keys=True), file=sys.stderr)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = args.out or cfg.out
    record = train(cfg, metrics_path=out)
    if out is None:
        for m in record.metrics:
            print(metrics_line(m))
    log.info("simulate finished: %d rounds", len(record.metrics))
    return 0


def cmd_serve(args) -> int:
    cfg = _load(args)
    out = args.out or cfg.out
    carrier = TcpServerCarrier(args.bind, cfg.clients, handshake_timeout_s=cfg.timeout_s)
    log.info("serving on %s:%d for %d clients", carrier.address[0], carrier.address[1], cfg.clients)
    record = train(cfg, carrier=carrier, metrics_path=out)
    if out is None:
        for m in record.metrics:
            print(metrics_line(m))
    return 0


def cmd_client(args) -> int:
    cfg = _load(args)
    run_client(args.connect, args.client_id, cfg)
    log.info("client %d finished", args.client_id)
    return 0


def _parse_list(text: str, parse, what: str) -> list:
    """The non-empty comma-separated tokens of ``text``, each through ``parse``; a bad token is a ConfigError."""
    out = []
    for token in filter(None, (token.strip() for token in text.split(","))):
        try:
            out.append(parse(token))
        except ValueError:
            raise ConfigError(f"bad {what} {token!r} in {text!r}") from None
    if not out:
        raise ConfigError(f"no {what} values in {text!r}")
    return out


def _parse_eps(token: str) -> float:
    return math.inf if token.lower() in ("inf", "infinity") else float(token)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    rows = epsilon_sweep(cfg, _parse_list(args.eps, _parse_eps, "epsilon"), _parse_list(args.seeds, int, "seed"))
    if args.out:
        write_sweep_csv(rows, args.out)
    print(f"{'epsilon':>10}  {'mean_acc':>10}  {'std_acc':>10}  runs")
    for row in rows:
        eps = "inf" if math.isinf(row["epsilon"]) else f"{row['epsilon']:g}"
        print(f"{eps:>10}  {row['mean_accuracy']:>10.4f}  {row['std_accuracy']:>10.4f}  {len(row['accuracies'])}")
    return 0


def cmd_gradcheck(args) -> int:
    spec = ModelSpec(args.model, args.input_dim, args.output_dim, args.hidden_dim)
    m = param_count(spec)
    worst = 0.0
    failures = 0
    for i in range(args.samples):
        gen = rng.stream("gradcheck", args.seed, i)
        params = gen.normal(0.0, 1.0, m)
        x = gen.normal(0.0, 1.0, (args.batch, spec.input_dim))
        if spec.is_classifier:
            y = gen.integers(0, spec.output_dim, args.batch)
        else:
            y = gen.normal(0.0, 1.0, args.batch)
        report = grad_check(spec, params, Batch(x, y), tol=args.tol)
        worst = max(worst, report.max_rel_err)
        failures += 0 if report.passed else 1
    print(f"model={args.model} samples={args.samples} max_rel_err={worst:.3e} tol={args.tol:g}")
    if failures:
        print(f"FAIL: {failures}/{args.samples} instances exceeded the tolerance")
        return 1
    print("PASS")
    return 0


# Kept so existing command lines still parse; clients with equal data size
# already run as one stacked computation.
_PARALLEL_HELP = "accepted for compatibility; no effect: in-process clients run in lane processes when the round is large (true/false)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flc", description="Federated consensus training with differential privacy")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a full federation in-process")
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="metrics JSONL path (default: stdout)")
    p.add_argument("--parallel", type=_parse_bool, default=False, help=_PARALLEL_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="host the TCP server side of a federation")
    p.add_argument("--bind", required=True, help="HOST:PORT to listen on")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="metrics JSONL path (default: stdout)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="join a TCP federation as one client")
    p.add_argument("--connect", required=True, help="HOST:PORT of the server")
    p.add_argument("--client-id", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("sweep", help="sweep the privacy budget over seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", required=True, help="comma list of budgets, e.g. 3,5,10,inf")
    p.add_argument("--seeds", required=True, help="comma list of seeds, e.g. 0,1,2")
    p.add_argument("--out", default=None, help="plot-ready CSV path")
    p.add_argument("--parallel", type=_parse_bool, default=False, help=_PARALLEL_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model gradients")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--input-dim", type=int, default=4)
    p.add_argument("--output-dim", type=int, default=3)
    p.add_argument("--hidden-dim", type=int, default=5)
    p.add_argument("--batch", type=_positive_int, default=8)
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlcoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
