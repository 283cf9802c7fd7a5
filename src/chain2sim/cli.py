"""Command-line entry points.

    chain2sim simulate --config scenario.yaml --out out/ [--seed N]
    chain2sim campaign --users 100 --days 7 --loss 0.01 [--out DIR] [--tick S] [--seed N]
    chain2sim taxonomy list [--level L] [--maturity M] [--provider P] [--enabler E]
    chain2sim taxonomy show A.3
    chain2sim portal eligibility --registry reg.csv POD
    chain2sim portal pair --registry reg.csv --log portal.jsonl POD DEVICE [--t T]
    chain2sim portal revoke --registry reg.csv --log portal.jsonl POD DEVICE [--t T]

`simulate` runs a YAML scenario (schema documented in the README),
`campaign` runs the stock multi-user campaign without a config file.  The
portal subcommands persist pairing state in an append-only transition log
so successive invocations continue where the last one stopped, and draw
the activation delays one in-process portal seeded with `--seed` would.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import replace

from chain2sim import portal as portal_mod, taxonomy


def _cmd_run(args: argparse.Namespace) -> int:
    """`simulate` a scenario file or run the stock `campaign`."""
    from chain2sim import harness  # brings numpy, which only runs need

    try:
        if args.command == "campaign":
            config = harness.default_campaign(
                args.users, args.days, args.loss, tick_s=args.tick, seed=args.seed
            )
        else:
            config = harness.load_config(args.config)
    except harness.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        os.makedirs(args.out, exist_ok=True)
        report = harness.run(config, out_dir=args.out)
    except OSError as exc:
        print(f"cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 2
    print(report.to_table_text(), end="")
    print(f"\nreport written to {os.path.join(args.out, 'report.csv')}")
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    if args.tax_cmd == "show":
        try:
            record = taxonomy.classify(args.id)
        except taxonomy.UnknownUseCaseError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(taxonomy.format_record(record))
        return 0

    filters = {}
    if args.level:
        filters["level"] = taxonomy.ServiceLevel(args.level)
    if args.maturity:
        filters["maturity"] = taxonomy.Maturity(args.maturity)
    if args.provider:
        filters["provider"] = args.provider
    if args.enabler:
        filters["enabler"] = taxonomy.Enabler(args.enabler)
    print(f"{'id':<6} {'level':<12} {'maturity':<16} {'enabler':<12} name")
    for uc_id in taxonomy.list_by(**filters):
        record = taxonomy.classify(uc_id)
        maturity = taxonomy.maturity_text(record, "/")
        print(
            f"{record.id:<6} {record.level.value:<12} {maturity:<16} "
            f"{record.smart_home_enabler.value:<12} {record.name}"
        )
    return 0


def _finite_time(text: str) -> float:
    """A `--t` value; a NaN or infinite time would write a log no replay accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _open_portal(args: argparse.Namespace) -> portal_mod.Portal:
    """The portal as the log left it, its delays drawn from the `--seed` stream.

    Raises:
        OSError, ValueError: the registry or the log cannot be read or parsed.
    """
    registry = portal_mod.load_registry(args.registry)
    rng = random.Random(args.seed)
    if args.log and os.path.exists(args.log):
        return portal_mod.replay_log(registry, args.log, rng)
    return portal_mod.Portal(registry, rng=rng)


def _cmd_portal(args: argparse.Namespace) -> int:
    try:
        gate = _open_portal(args)
        appends = args.log and args.portal_cmd != "eligibility"
        log_fh = open(args.log, "a") if appends else None
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.portal_cmd == "eligibility":
        verdict = gate.check_eligibility(args.pod)
        if verdict.eligible:
            print(f"{args.pod}: eligible")
            return 0
        print(f"{args.pod}: ineligible ({verdict.reason})")
        return 1

    try:
        gate.set_log_sink(log_fh)
        if args.portal_cmd == "pair":
            try:
                pairing = gate.pair(args.pod, args.device, args.t)
            except (portal_mod.IneligiblePodError, portal_mod.DuplicatePairingError) as exc:
                print(exc, file=sys.stderr)
                return 2
            print(
                f"pairing requested at t={pairing.requested_at:.0f}; "
                f"frames flow from t={pairing.active_at:.0f}"
            )
            return 0
        try:
            pairing = gate.revoke(args.pod, args.device, args.t)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(f"pairing revoked at t={pairing.revoked_at:.0f}")
        return 0
    finally:
        if log_fh is not None:
            log_fh.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chain2sim",
        description="Deterministic simulator of a smart-meter to user-device telemetry channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a YAML scenario")
    p_sim.add_argument("--config", required=True, help="scenario YAML file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=_cmd_run)

    p_camp = sub.add_parser("campaign", help="run the stock multi-user campaign")
    p_camp.add_argument("--users", type=int, required=True)
    p_camp.add_argument("--days", type=int, required=True)
    p_camp.add_argument("--loss", type=float, required=True, help="frame loss probability")
    p_camp.add_argument("--tick", type=int, default=60, help="sampling tick in seconds")
    p_camp.add_argument("--seed", type=int, default=42)
    p_camp.add_argument("--out", default="campaign-out", help="output directory")
    p_camp.set_defaults(func=_cmd_run)

    p_tax = sub.add_parser("taxonomy", help="browse the use-case catalogue")
    tax_sub = p_tax.add_subparsers(dest="tax_cmd", required=True)
    p_list = tax_sub.add_parser("list", help="list use cases, optionally filtered")
    p_list.add_argument("--level", choices=[l.value for l in taxonomy.ServiceLevel])
    p_list.add_argument("--maturity", choices=[m.value for m in taxonomy.Maturity])
    p_list.add_argument("--provider", choices=sorted(taxonomy.PROVIDER_TAGS))
    p_list.add_argument("--enabler", choices=[e.value for e in taxonomy.Enabler])
    p_list.set_defaults(func=_cmd_taxonomy)
    p_show = tax_sub.add_parser("show", help="show one use case in full")
    p_show.add_argument("id")
    p_show.set_defaults(func=_cmd_taxonomy)

    p_portal = sub.add_parser("portal", help="eligibility lookups and pairing lifecycle")
    portal_sub = p_portal.add_subparsers(dest="portal_cmd", required=True)
    for name, needs_device in (("eligibility", False), ("pair", True), ("revoke", True)):
        p = portal_sub.add_parser(name)
        p.add_argument("--registry", required=True, help="pod registry CSV")
        p.add_argument("--log", default=None, help="pairing transition log (JSON lines)")
        p.add_argument("--seed", type=int, default=0, help="seed for activation delays")
        p.add_argument("pod")
        if needs_device:
            p.add_argument("device")
            p.add_argument("--t", type=_finite_time, default=0.0, help="scenario time of the request")
        p.set_defaults(func=_cmd_portal)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
