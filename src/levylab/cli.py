"""Command line entry point.

Exit codes: 0 clean run, 1 at least one failed experiment, 2 config error.
"""

import argparse
import os
import sys

from .harness import ConfigError, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levylab")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="execute an experiment config")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--samples-scale", type=float, default=1.0)
    r.add_argument("--out", default=None)
    r.add_argument("--filter", default=None, help="glob on experiment names")
    r.add_argument(
        "--workers", type=int, default=None, help="default: the config's workers, else 1"
    )
    return p


def _env_seed():
    raw = os.environ["LEVYLAB_SEED"]
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LEVYLAB_SEED must be an integer, got {raw!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed
    out = args.out or os.environ.get("LEVYLAB_OUT")
    try:
        if seed is None and "LEVYLAB_SEED" in os.environ:
            seed = _env_seed()
        result = run(
            args.config,
            seed=seed,
            samples_scale=args.samples_scale,
            out_dir=out,
            name_filter=args.filter,
            workers=args.workers,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    c = result["counts"]
    print(
        f"pass={c['pass']} fail={c['fail']} inconclusive={c['inconclusive']} "
        f"error={c['error']} -> {result['csv']}"
    )
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
