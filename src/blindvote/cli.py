"""Command-line entry points.

    blindvote run <config.json> [--out DIR] [--seed N]
    blindvote attack <name> <config.json> [--out DIR] [--seed N]
    blindvote verify <transcript> [--report report.json]
    blindvote tally <transcript>

--seed replaces the seed in the config file. Exit code 0 means every
expected assertion held (or the transcript verified); 1 means a property
or attack verdict came out wrong, or the transcript diverged (``tally``
prints no count then); 2 means the inputs were unusable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .attacks import ATTACKS, run_attack
from .errors import ProtocolError
from .scenario import RunReport, ScenarioConfig, run_scenario, verify_transcript


def _print_report(report: RunReport) -> None:
    for row in report.assertions:
        mark = "ok " if row.ok else "FAIL"
        line = f"[{mark}] {row.prop}: expected {row.expected}, observed {row.observed}"
        if row.detail and not row.ok:
            line += f"  ({row.detail})"
        print(line)
    if report.attack is not None:
        a = report.attack
        verdict = "SUCCEEDED" if a.succeeded else "FAILED"
        expected = "expected" if a.ok else "UNEXPECTED"
        print(f"attack {a.name} ({a.property_exercised}): {verdict} as {expected}")
        if a.detail:
            print(f"  {a.detail}")
    print("tally:")
    for ballot_hex, count in report.tally_hex.items():
        print(f"  {ballot_hex} {count}")
    if report.transcript_path:
        print(f"transcript: {report.transcript_path}")
        print(f"report: {report.report_path}")


def cmd_run(args) -> int:
    """``run``, or ``attack`` when ``args.name`` names an attack."""
    config = ScenarioConfig.from_json_file(args.config)
    config = config if args.seed is None else replace(config, seed=args.seed)
    report = run_attack(args.name, config, args.out) if args.name else run_scenario(config, args.out)
    _print_report(report)
    return 0 if report.all_ok() else 1


def cmd_verify(args) -> int:
    report_path = args.report
    if report_path is None:
        sibling = Path(args.transcript).with_name("report.json")
        report_path = sibling if sibling.exists() else None
    check = verify_transcript(args.transcript, report_path)
    if not check.ok:
        return _divergence(check)
    print("transcript verified: replay and recount agree")
    return 0


def cmd_tally(args) -> int:
    check = verify_transcript(args.transcript)
    if not check.ok:
        return _divergence(check)
    if check.tally_hex is None:
        print("error: sealing key not published in this transcript", file=sys.stderr)
        return 1
    for ballot_hex, count in check.tally_hex.items():
        print(f"{ballot_hex} {count}")
    return 0


def _divergence(check) -> int:
    where = f" at index {check.index}" if check.index is not None else ""
    print(f"DIVERGENCE{where}: {check.problem}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindvote",
        description="blind-signature e-voting simulator and attack harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full election scenario")
    run.set_defaults(name=None)
    attack = sub.add_parser("attack", help="run a named adversarial scenario")
    attack.add_argument("name", choices=sorted(ATTACKS), help="attack to run")
    for p in (run, attack):
        p.add_argument("config", help="scenario config (JSON)")
        p.add_argument("--out", default=None, help="directory for transcript and report")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="replay a transcript and check for divergence")
    p.add_argument("transcript")
    p.add_argument("--report", default=None, help="report.json to compare against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tally", help="recount a transcript off-chain")
    p.add_argument("transcript")
    p.set_defaults(func=cmd_tally)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
