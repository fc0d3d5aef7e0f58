"""Command-line front end.

Subcommands: sweep, summarize, stability, gen, estimate.
Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 internal error.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .datagen import (
    GENERATOR_ID,
    GaussianSpec,
    StudentTSpec,
    generate_gaussian,
    generate_student_t,
)
from .dataset import dataset_from_csv, dataset_to_csv
from .errors import ConfigurationError, NonFiniteNormalizationError
from .estimators import estimate
from .harness import (
    GAUSSIAN,
    STUDENT_T,
    ExperimentConfig,
    Status,
    read_records_csv,
    run_sweep,
    stability_profile,
    summarize,
    write_records_csv,
    write_records_jsonl,
    write_stability_csv,
    write_summary_csv,
)
from .scaling import Backend


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def _number(token: str, cast):
    """cast(token), or a ConfigurationError that names the token."""
    try:
        return cast(token)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigurationError(f"expected {kind}, got {token!r}") from None


def _parse_number_list(text: str, cast):
    """Comma-separated numbers; dims also accept start:stop:step ranges."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token and cast is int:
            parts = token.split(":")
            if len(parts) != 3:
                raise ConfigurationError(f"range token must be start:stop:step, got {token!r}")
            start, stop, step = (_number(p, int) for p in parts)
            if step < 1:
                raise ConfigurationError(f"range step must be positive in {token!r}")
            values.extend(range(start, stop + 1, step))
        else:
            values.append(_number(token, cast))
    if not values:
        raise ConfigurationError(f"empty number list: {text!r}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="knnmi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"knnmi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--config", required=True, help="JSON file mirroring ExperimentConfig fields")
    p.add_argument("--out", required=True, help="records CSV output path")
    p.add_argument("--jsonl", default=None, help="optional JSON-lines mirror")

    p = sub.add_parser("summarize", help="aggregate a records CSV into per-cell stats")
    p.set_defaults(run=_cmd_summarize)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stability", help="ln V of all backends over a dimension sweep")
    p.set_defaults(run=_cmd_stability)
    p.add_argument("--epsilon", required=True, help="comma-separated radii, e.g. 1,2")
    p.add_argument("--dims", required=True, help="comma-separated dims; int ranges as start:stop:step")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen", help="emit a synthetic dataset to CSV")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--family", required=True, choices=[GAUSSIAN, STUDENT_T])
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="one-shot estimation of a CSV dataset")
    p.set_defaults(run=_cmd_estimate)
    p.add_argument("--data", required=True)
    p.add_argument("--dx", type=int, default=None)
    p.add_argument("--dy", type=int, default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--backend", default="proposed")
    return parser


def _cmd_sweep(args) -> None:
    config = ExperimentConfig.from_json_file(args.config)
    records = run_sweep(config)
    write_records_csv(records, args.out)
    if args.jsonl:
        write_records_jsonl(records, args.jsonl)
    meta = {
        "records": len(records),
        "out": args.out,
        "generator": GENERATOR_ID,
        "family": config.family,
        "n": config.n,
        "k": config.k,
        "repetitions": config.repetitions,
        "backends": [b.value for b in config.backends],
    }
    print(json.dumps(meta))


def _cmd_summarize(args) -> None:
    records = read_records_csv(args.records)
    write_summary_csv(summarize(records), args.out)


def _cmd_stability(args) -> None:
    epsilon = _parse_number_list(args.epsilon, float)
    dims = _parse_number_list(args.dims, int)
    write_stability_csv(stability_profile(epsilon, dims), args.out)


def _cmd_gen(args) -> None:
    if args.family == GAUSSIAN:
        if args.rho is None:
            raise ConfigurationError("--rho is required for the gaussian family")
        data = generate_gaussian(GaussianSpec(d=args.d, rho=args.rho, n=args.n, seed=args.seed))
    else:
        if args.nu is None:
            raise ConfigurationError("--nu is required for the student_t family")
        data = generate_student_t(StudentTSpec(d=args.d, nu=args.nu, n=args.n, seed=args.seed))
    dataset_to_csv(data, args.out)


def _cmd_estimate(args) -> None:
    data = dataset_from_csv(args.data, d_x=args.dx, d_y=args.dy)
    backend = Backend(args.backend)
    try:
        report = estimate(data, k=args.k, backend=backend)
    except NonFiniteNormalizationError:
        payload = {
            "status": Status.OVERFLOW.value,
            "backend": backend.value,
            "n_samples": data.n,
            "k": args.k,
        }
    else:
        status = Status.OK if report.nmi is not None else Status.UNDEFINED_NMI
        payload = {"status": status.value, **asdict(report), "backend": report.backend.value}
    print(json.dumps(payload))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0
