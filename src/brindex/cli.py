"""Command line front end.

    brindex run FILE [--json] [--steps N]
    brindex corpus [--json] [--filter STR] [--perturb] [--steps N] [--bound N]

Exit codes: 0 success, 1 parse error or bad command line, 2 mathematical
domain error, 3 resource limit, 4 identity-check failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import set_limits
from .corpus import corpus_failures, render_corpus_human, run_corpus
from .errors import (
    BrindexError,
    ExprParseError,
    ResourceLimitError,
    SessionError,
)
from .session import render_human, render_jsonl, run_session_text


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a parse error; exit 2 is kept for
    mathematical domain errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brindex",
        description="Local indices of 1-forms along hypersurface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("file", help="session file (UTF-8, # comments)")
    corpus_p = sub.add_parser("corpus", help="run the embedded example corpus")
    corpus_p.add_argument(
        "--filter", default=None, help="only cases whose id or tag contains STR"
    )
    corpus_p.add_argument(
        "--perturb",
        action="store_true",
        help="self-test: corrupt one expectation and confirm the failure surfaces",
    )
    for p in (run_p, corpus_p):
        p.add_argument("--json", action="store_true", help="JSON Lines output")
        p.add_argument("--steps", type=_positive_int, help="normal-form reduction budget")
    # Only the identity sweep of the corpus runs the oracle.
    corpus_p.add_argument("--bound", type=_positive_int, help="colength oracle degree cap")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.steps is not None:
        overrides["max_reduction_steps"] = args.steps
    if getattr(args, "bound", None) is not None:
        overrides["oracle_bound"] = args.bound
    if overrides:
        set_limits(**overrides)

    try:
        if args.command == "run":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            records = run_session_text(text)
            print(render_jsonl(records) if args.json else render_human(records))
            return 0 if all(r.all_passed for r in records) else 4

        groups = run_corpus(args.filter, args.perturb)
        if args.json:
            flat = [r for _, recs in groups for r in recs]
            print(render_jsonl(flat))
        else:
            print(render_corpus_human(groups))
        return 4 if corpus_failures(groups) else 0

    except (SessionError, ExprParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except BrindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
