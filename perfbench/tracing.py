"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces public functions of mpqss at the names their
callers look up (``protocol.transmit`` is the name ``run_protocol`` calls,
``harness.parse`` the one ``replay`` calls) with wrappers that record a span:
name, start, end, parent span and operation id. Calls to the per-qubit
algebra are counted, not spanned, since there are about a million per
bulk-run operation. Observers read counts off results at the same
boundaries (qubits dealt, positions lost, blocks reconciled, ...). Spans and
counts stay in memory until ``write`` and ``metrics``; leaving the context
restores every original, and an untraced run never enters it.

Calls made through the package namespace (``mpqss.run_protocol``) bypass the
wrappers; mpqss itself never calls through it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from collections import Counter

# (name, unit, better) of every per-layer metric, in report order. A name
# ending in _s is the time per operation spent inside that function's spans,
# children included; _self_s excludes the wrapped children; _calls counts
# spans. Counts and times are medians over traced operations; ratios are
# totals over them.
PER_LAYER = [
    ("qubits.calls", "count", "lower"),
    ("qubits.measure_calls", "count", "lower"),
    ("protocol.generate_secrets_s", "s", "lower"),
    ("protocol.prepare_block_s", "s", "lower"),
    ("protocol.encode_block_s", "s", "lower"),
    ("protocol.split_for_receivers_s", "s", "lower"),
    ("protocol.announce_bases_s", "s", "lower"),
    ("protocol.combined_bases_s", "s", "lower"),
    ("protocol.run_check_s", "s", "lower"),
    ("protocol.extract_raw_key_s", "s", "lower"),
    ("protocol.run_protocol_s", "s", "lower"),
    ("protocol.run_protocol_self_s", "s", "lower"),
    ("protocol.qubits_dealt", "count", "higher"),
    ("protocol.sift_kept_ratio", "ratio", "higher"),
    ("protocol.key_bits_per_qubit", "ratio", "higher"),
    ("channel.transmit_s", "s", "lower"),
    ("channel.transmit_calls", "count", "lower"),
    ("channel.lost", "count", "lower"),
    ("channel.intercepted", "count", "lower"),
    ("transcript.serialize_s", "s", "lower"),
    ("transcript.digest_s", "s", "lower"),
    ("transcript.parse_s", "s", "lower"),
    ("transcript.bytes", "count", "lower"),
    ("transcript.events", "count", "lower"),
    ("harness.run_experiment_self_s", "s", "lower"),
    ("harness.trials", "count", "higher"),
    ("harness.abort_ratio", "ratio", "lower"),
    ("harness.replay_self_s", "s", "lower"),
    ("harness.replay_issues", "count", "lower"),
    ("postprocessing.reconcile_stream_s", "s", "lower"),
    ("postprocessing.reconcile_s", "s", "lower"),
    ("postprocessing.reconcile_calls", "count", "lower"),
    ("postprocessing.syndrome_decode_s", "s", "lower"),
    ("postprocessing.coset_key_s", "s", "lower"),
    ("postprocessing.draw_group_codeword_s", "s", "lower"),
    ("postprocessing.block_yield", "ratio", "higher"),
    ("postprocessing.blocks_discarded", "count", "lower"),
    ("postprocessing.build_canonical_css_s", "s", "lower"),
    ("trace.untraced_op_s.min", "s", "lower"),
    ("trace.op_s.min", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Ratios as (numerator, denominator) tallies summed over traced operations.
RATIOS = {
    "protocol.sift_kept_ratio": ("protocol.usable", "protocol.received"),
    "protocol.key_bits_per_qubit": ("protocol.key_bits", "protocol.qubits_dealt"),
    "harness.abort_ratio": ("harness.aborted", "harness.trials"),
    "postprocessing.block_yield": ("postprocessing.blocks_ok", "postprocessing.blocks_total"),
}

# The qubits functions that protocol and channel import, counted per call.
QUBIT_CALLS = {
    "protocol": ("encode", "apply_value_flip", "apply_hadamard", "measure"),
    "channel": ("encode", "apply_pauli", "measure"),
}

# Spans whose time minus their wrapped children is reported as _self_s.
SELF_TIMED = ("protocol.run_protocol", "harness.run_experiment", "harness.replay")


def _observe_run_protocol(tally, args, tr):
    tally["protocol.qubits_dealt"] += args[0].total_qubits
    for l, outcomes in tr.outcomes.items():
        tally["protocol.received"] += sum(1 for o in outcomes if o is not None)
        tally["protocol.usable"] += sum(tr.usable.get(l, ()))
    tally["protocol.key_bits"] += len(tr.raw_key or ())


def _observe_transmit(tally, args, res):
    tally["channel.lost"] += len(res.lost)
    if res.intercept is not None:
        tally["channel.intercepted"] += len(res.intercept.positions)


def _observe_parse(tally, args, parsed):
    tally["transcript.bytes"] += len(args[0].encode())
    tally["transcript.events"] += len(parsed.events)


def _observe_run_experiment(tally, args, report):
    tally["harness.trials"] += report.trials
    tally["harness.aborted"] += round(report.abort_rate * report.trials)


def _observe_replay(tally, args, verdict):
    tally["harness.replay_issues"] += len(verdict.issues)


def _observe_reconcile_stream(tally, args, stream):
    tally["postprocessing.blocks_total"] += stream.blocks_total
    tally["postprocessing.blocks_ok"] += stream.blocks_ok
    tally["postprocessing.blocks_discarded"] += stream.blocks_discarded


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.tally = Counter()  # counts since the trace began
        self.tallies: dict[int, Counter] = {}  # counts per operation
        self.op = -1
        self._stack: list[int] = []

    def _span(self, name, fn, observe=None):
        spans, stack, tally = self.spans, self._stack, self.tally
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(tally, args, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        tally = self.tally

        @functools.wraps(fn)
        def wrapper(*args):
            tally[key] += 1
            return fn(*args)

        return wrapper

    def _wrappers(self):
        """(owner, attribute, wrapper) for every name the tracer replaces."""
        from mpqss import channel, harness, postprocessing, protocol, transcript

        spanned = [
            ("protocol.run_protocol", [protocol, harness], "run_protocol", _observe_run_protocol),
            ("channel.transmit", [protocol], "transmit", _observe_transmit),
            ("transcript.parse", [harness], "parse", _observe_parse),
            ("harness.run_experiment", [harness], "run_experiment", _observe_run_experiment),
            ("harness.replay", [harness], "replay", _observe_replay),
            ("postprocessing.reconcile_stream", [postprocessing, harness], "reconcile_stream",
             _observe_reconcile_stream),
            ("postprocessing.build_canonical_css", [postprocessing, harness], "build_canonical_css", None),
            ("transcript.serialize", [transcript.Transcript], "serialize", None),
            ("transcript.digest", [transcript.Transcript], "digest", None),
            ("postprocessing.coset_key", [postprocessing.CssPair], "coset_key", None),
        ]
        for fn in ("generate_secrets", "prepare_block", "encode_block", "split_for_receivers",
                   "announce_bases", "combined_bases", "run_check", "extract_raw_key"):
            spanned.append((f"protocol.{fn}", [protocol], fn, None))
        for fn in ("reconcile", "syndrome_decode", "draw_group_codeword"):
            spanned.append((f"postprocessing.{fn}", [postprocessing], fn, None))

        out = []
        for name, owners, attr, observe in spanned:
            wrapper = self._span(name, getattr(owners[0], attr), observe)
            out.extend((owner, attr, wrapper) for owner in owners)
        for owner in (protocol, channel):
            for attr in QUBIT_CALLS[owner.__name__.rpartition(".")[2]]:
                out.append((owner, attr, self._counted(getattr(owner, attr), f"qubits.{attr}")))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Trace every call made inside the block; restore the originals after it."""
        wrappers = self._wrappers()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in wrappers]
        try:
            for owner, attr, wrapper in wrappers:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def run_op(self, op: int, fn, inp):
        """Run one operation as a root span named ``op``, with its own tally."""
        self.op = op
        before = Counter(self.tally)
        try:
            return self._span("op", fn)(inp)
        finally:
            self.tallies[op] = self.tally - before

    def per_op(self) -> dict[int, Counter]:
        """Times, span counts and tallies of every traced operation."""
        per_op = {op: Counter(tally) for op, tally in self.tallies.items()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            stats = per_op[op]
            stats[f"{name}_s"] += end - start
            stats[f"{name}_calls"] += 1
            if name in SELF_TIMED:
                stats[f"{name}_self_s"] += end - start - child_time[index]
        return per_op

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the trace.* ones, which the runner adds."""
        per_op = self.per_op()
        totals = sum(self.tallies.values(), Counter())
        out = {}
        qubit_fns = {fn for fns in QUBIT_CALLS.values() for fn in fns}
        for stats in per_op.values():
            stats["qubits.calls"] = sum(stats[f"qubits.{fn}"] for fn in qubit_fns)
            stats["qubits.measure_calls"] = stats["qubits.measure"]
        for name, _, _ in PER_LAYER:
            if name.startswith("trace."):
                continue
            if name in RATIOS:
                num, den = RATIOS[name]
                out[name] = totals[num] / totals[den] if totals[den] else 0.0
            else:
                out[name] = float(statistics.median(stats[name] for stats in per_op.values()))
        return out

    def write(self, path) -> None:
        """Every span as one JSON line, times in seconds since the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f'["{name}",{start - t0:.7f},{end - t0:.7f},{parent},{op}]\n')
