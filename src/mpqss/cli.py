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
from .harness import METRICS, ExperimentSpec, replay, run_experiment
from .postprocessing import hex_to_bits

SCENARIOS = (
    "honest",
    "intercept-resend",
    "ordering-attack",
    "ordering-attack-blind",
    "insider-preparer",
    "insider-colluders",
)

_DEFAULTS = {
    "scenario": "honest",
    "senders": 2,
    "receivers": 3,
    "blocks": 6,
    "variant": "main",
    "check_fraction": 0.5,
    "abort_threshold": 0.11,
    "quantum_memory": True,
    "enforce_ordering": True,
    "omit_hadamard": "",
    "loss_prob": 0.0,
    "loss_strategy": "remove",
    "px": 0.0,
    "py": 0.0,
    "pz": 0.0,
    "fraction": 1.0,
    "target": 3,
    "colluders": "",
    "withhold_bases": "",
    "trials": 1,
    "seed": 0,
    "metrics": "qber,efficiency",
    "otp_message": "",
    "output": "json",
}

_BOOL_KEYS = ("quantum_memory", "enforce_ordering")
_INT_KEYS = ("senders", "receivers", "blocks", "target", "trials", "seed")
_FLOAT_KEYS = ("check_fraction", "abort_threshold", "loss_prob", "px", "py", "pz", "fraction")


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
            value = value.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"config:{no}", f"unknown option {key!r}")
            if key in _BOOL_KEYS:
                options[key] = value.lower() in ("1", "true", "yes", "on")
            elif key in _INT_KEYS:
                options[key] = int(value)
            elif key in _FLOAT_KEYS:
                options[key] = float(value)
            else:
                options[key] = value
    return options


def _index_set(text: str, field: str) -> frozenset[int]:
    if not text.strip():
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(field, f"expected comma-separated integers, got {text!r}") from None


def _build_spec(opt: dict) -> ExperimentSpec:
    scenario = opt["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}")
    omit = _index_set(opt["omit_hadamard"], "omit_hadamard")
    enforce = opt["enforce_ordering"]

    adversary = None
    if scenario == "intercept-resend":
        adversary = InterceptResend(fraction=opt["fraction"])
    elif scenario == "ordering-attack":
        adversary = OrderingAttack()
    elif scenario == "ordering-attack-blind":
        adversary = OrderingAttack(use_announced_bases=False)
    elif scenario == "insider-preparer":
        adversary = PreparerInsider()
        omit = omit or frozenset({2})
    elif scenario == "insider-colluders":
        colluders = _index_set(opt["colluders"], "colluders") or None
        withheld = _index_set(opt["withhold_bases"], "withhold_bases")
        adversary = ColluderInsider(opt["target"], colluders, withheld)
        omit = omit or frozenset({opt["target"]})

    protocol = ProtocolConfig(
        senders=opt["senders"],
        receivers=opt["receivers"],
        blocks=opt["blocks"],
        variant=Variant.parse(opt["variant"]),
        check_fraction=opt["check_fraction"],
        qber_abort_threshold=opt["abort_threshold"],
        quantum_memory=opt["quantum_memory"],
        enforce_ordering=enforce,
        omit_hadamard=omit,
    )
    try:
        loss_strategy = LossStrategy(opt["loss_strategy"])
    except ValueError:
        raise ConfigError("loss_strategy", "must be 'remove' or 'substitute'") from None
    channel = ChannelModel(
        loss_prob=opt["loss_prob"],
        p_x=opt["px"],
        p_y=opt["py"],
        p_z=opt["pz"],
        loss_strategy=loss_strategy,
        adversary=adversary,
    )
    metrics = tuple(m.strip() for m in opt["metrics"].split(",") if m.strip())
    return ExperimentSpec(
        protocol=protocol,
        channel=channel,
        trials=opt["trials"],
        metrics=metrics,
        output=opt["output"],
        seed=opt["seed"],
    )


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value options file; flags override it")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("-m", "--senders", type=int)
    p.add_argument("-n", "--receivers", type=int)
    p.add_argument("-N", "--blocks", type=int, help="qubits per receiver")
    p.add_argument("--variant", help="main, block-basis (a), or block-shared (b)")
    p.add_argument("--check-fraction", type=float, dest="check_fraction")
    p.add_argument("--abort-threshold", type=float, dest="abort_threshold")
    p.add_argument("--no-quantum-memory", action="store_false", dest="quantum_memory", default=None)
    p.add_argument("--no-enforce-ordering", action="store_false", dest="enforce_ordering", default=None)
    p.add_argument("--omit-hadamard", dest="omit_hadamard", help="senders skipping basis mixing, e.g. '2'")
    p.add_argument("--loss-prob", type=float, dest="loss_prob")
    p.add_argument("--loss-strategy", choices=("remove", "substitute"), dest="loss_strategy")
    p.add_argument("--px", type=float)
    p.add_argument("--py", type=float)
    p.add_argument("--pz", type=float)
    p.add_argument("--fraction", type=float, help="intercepted fraction for intercept-resend")
    p.add_argument("--target", type=int, help="targeted sender for insider-colluders")
    p.add_argument("--colluders", help="cooperating senders, e.g. '1,2'")
    p.add_argument("--withhold-bases", dest="withhold_bases", help="colluders keeping their basis strings private")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--metrics", help=f"comma list from: {', '.join(METRICS)}")
    p.add_argument("--otp-message", dest="otp_message", help="hex message to one-time-pad with the distilled key (needs the block_yield metric)")
    p.add_argument("--output", choices=("json", "csv", "text"))
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--save-transcript", dest="save_transcript", help="write the first trial's transcript here")


def _run(args: argparse.Namespace) -> int:
    options = dict(_DEFAULTS)
    if args.config:
        options.update(_parse_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    spec = _build_spec(options)
    message = list(hex_to_bits(options["otp_message"])) if options["otp_message"] else None
    report, transcript = run_experiment(spec, keep_first_transcript=True, otp_message=message)
    if args.save_transcript and transcript is not None:
        transcript.save(args.save_transcript)
    rendered = report.render(spec.output)
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
