"""Command-line front end: scenario runner and transcript replay.

``mpqss run`` executes seeded Monte Carlo trials of a scenario and writes a
json/csv/text report; ``mpqss replay`` re-derives a saved transcript's
consequences and reports inconsistencies. A simple ``key = value`` config file
can carry any run option; command-line flags override the file. Exit codes:
0 success, 1 abort-dominated or inconsistent, 2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import NamedTuple

from .channel import (
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
)
from .config import ProtocolConfig, Variant
from .errors import ConfigError, MpqssError, TranscriptParseError
from .harness import METRICS, ExperimentSpec, derive_trial_seed, replay, run_experiment
from .postprocessing import hex_to_bits
from .protocol import run_protocol


def _index_set(text: str, field: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(field, f"expected comma-separated integers, got {text!r}") from None


# Each scenario's adversary, built from the run options.
SCENARIOS = {
    "honest": lambda opt: None,
    "intercept-resend": lambda opt: InterceptResend(fraction=opt["fraction"]),
    "ordering-attack": lambda opt: OrderingAttack(),
    "ordering-attack-blind": lambda opt: OrderingAttack(use_announced_bases=False),
    "insider-preparer": lambda opt: PreparerInsider(),
    "insider-colluders": lambda opt: ColluderInsider(
        opt["target"],
        _index_set(opt["colluders"], "colluders") or None,
        _index_set(opt["withhold_bases"], "withhold_bases"),
    ),
}


class Option(NamedTuple):
    short: str  # short flag, or ""
    kind: type | tuple[str, ...]  # bool, int, float or str, or the allowed values
    default: object
    help: str = ""


# Every run option. Its flag is --<name> with dashes, or --no-<name> for a
# bool (which defaults on), and its config-file key is <name>.
OPTIONS = {
    "scenario": Option("", tuple(SCENARIOS), "honest"),
    "senders": Option("-m", int, 2),
    "receivers": Option("-n", int, 3),
    "blocks": Option("-N", int, 6, "qubits per receiver"),
    "variant": Option("", str, "main", "main, block-basis (a), or block-shared (b)"),
    "check_fraction": Option("", float, 0.5),
    "abort_threshold": Option("", float, 0.11),
    "quantum_memory": Option("", bool, True),
    "enforce_ordering": Option("", bool, True),
    "omit_hadamard": Option("", str, "", "senders skipping basis mixing, e.g. '2'"),
    "loss_prob": Option("", float, 0.0),
    "loss_strategy": Option("", tuple(s.value for s in LossStrategy), "remove"),
    "px": Option("", float, 0.0),
    "py": Option("", float, 0.0),
    "pz": Option("", float, 0.0),
    "fraction": Option("", float, 1.0, "intercepted fraction for intercept-resend"),
    "target": Option("", int, 3, "targeted sender for insider-colluders"),
    "colluders": Option("", str, "", "cooperating senders, e.g. '1,2'"),
    "withhold_bases": Option("", str, "", "colluders keeping their basis strings private"),
    "trials": Option("", int, 1),
    "seed": Option("", int, 0),
    "metrics": Option("", str, "qber,efficiency", f"comma list from: {', '.join(METRICS)}"),
    "otp_message": Option(
        "", str, "", "hex message to one-time-pad with the distilled key (needs the block_yield metric)"
    ),
    "output": Option("", ("json", "csv", "text"), "json"),
}

_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _config_value(name: str, text: str):
    """``text`` as the value of option ``name``, checked as its flag's value is."""
    kind = OPTIONS[name].kind
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}")
        return _BOOLS[text.lower()]
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"expected one of {', '.join(kind)}, got {text!r}")
        return text
    return kind(text)


def _parse_config_file(path: str) -> dict:
    options: dict = {}
    with open(path) as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config:{no}", f"expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in OPTIONS:
                raise ConfigError(f"config:{no}", f"unknown option {key!r}")
            try:
                options[key] = _config_value(key, value.strip())
            except ValueError as err:
                raise ConfigError(f"config:{no}", f"{key}: {err}") from None
    return options


def _build_spec(opt: dict) -> ExperimentSpec:
    omit = _index_set(opt["omit_hadamard"], "omit_hadamard")
    adversary = SCENARIOS[opt["scenario"]](opt)
    insider = isinstance(adversary, (PreparerInsider, ColluderInsider))
    if not omit and insider and adversary.target <= opt["senders"]:
        # The insider reads a sender who skips basis mixing unless told otherwise.
        omit = frozenset({adversary.target})
    protocol = ProtocolConfig(
        senders=opt["senders"],
        receivers=opt["receivers"],
        blocks=opt["blocks"],
        variant=Variant.parse(opt["variant"]),
        check_fraction=opt["check_fraction"],
        qber_abort_threshold=opt["abort_threshold"],
        quantum_memory=opt["quantum_memory"],
        enforce_ordering=opt["enforce_ordering"],
        omit_hadamard=omit,
    )
    channel = ChannelModel(
        loss_prob=opt["loss_prob"],
        p_x=opt["px"],
        p_y=opt["py"],
        p_z=opt["pz"],
        loss_strategy=LossStrategy(opt["loss_strategy"]),
        adversary=adversary,
    )
    metrics = tuple(m.strip() for m in opt["metrics"].split(",") if m.strip())
    return ExperimentSpec(
        protocol=protocol, channel=channel, trials=opt["trials"], metrics=metrics, seed=opt["seed"]
    )


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value options file; flags override it")
    for name, opt in OPTIONS.items():
        flag = name.replace("_", "-")
        if opt.kind is bool:
            p.add_argument(f"--no-{flag}", action="store_false", dest=name, default=None, help=opt.help)
            continue
        check = {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
        p.add_argument(*filter(None, (opt.short, f"--{flag}")), dest=name, help=opt.help, **check)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--save-transcript", dest="save_transcript", help="write the first trial's transcript here")


def _run(args: argparse.Namespace) -> int:
    options = {name: opt.default for name, opt in OPTIONS.items()}
    if args.config:
        options.update(_parse_config_file(args.config))
    options.update((name, value) for name in OPTIONS if (value := getattr(args, name)) is not None)
    spec = _build_spec(options)
    message = list(hex_to_bits(options["otp_message"])) if options["otp_message"] else None
    report = run_experiment(spec, otp_message=message)
    if args.save_transcript:
        # Trial 0 run on its own: the same transcript as the sweep's first.
        first = replace(spec.protocol, seed=derive_trial_seed(spec.seed, 0))
        run_protocol(first, spec.channel).save(args.save_transcript)
    rendered = report.render(options["output"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    if report.abort_rate > 0.5:
        print(f"abort-dominated run: {report.abort_rate:.2%} of trials aborted", file=sys.stderr)
        return 1
    return 0


def _replay(args: argparse.Namespace) -> int:
    with open(args.transcript) as fh:
        text = fh.read()
    verdict = replay(text)
    if verdict.ok:
        print("ok: transcript is internally consistent")
        return 0
    for issue in verdict.issues:
        print(f"inconsistent: {issue}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mpqss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and report metrics")
    _add_run_arguments(run_p)
    replay_p = sub.add_parser("replay", help="verify a saved transcript")
    replay_p.add_argument("transcript")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _replay(args)
    except TranscriptParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ConfigError, MpqssError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
