"""Desk-scale simulator for multi-sender/multi-receiver quantum secret sharing.

The qubit layer is an exact symbolic algebra on the four conjugate-basis
states, which the bit-plane engine applies to whole blocks as array
operations; the protocol layer runs the full sender-chain/receiver-split state
machine with announcement-ordering enforcement; the channel layer adds loss,
Pauli noise, and adversaries; post-processing distills noisy raw keys through
nested GF(2) codes into one-time-pad material; the harness runs seeded Monte
Carlo experiments and verifies saved transcripts.
"""

from .channel import (
    IDEAL,
    ChannelModel,
    ColluderInsider,
    InterceptResend,
    LossStrategy,
    OrderingAttack,
    PreparerInsider,
    TransmitResult,
    collusion_attack,
    intercept_resend,
    ordering_attack,
    preparer_attack,
    transmit,
)
from .config import ProtocolConfig, Variant, block_of, position, receiver_of
from .errors import (
    ConfigError,
    DecodeFailure,
    KeyMaterialError,
    MpqssError,
    OrderingError,
    ProtocolStateError,
    TranscriptParseError,
)
from .harness import (
    METRICS,
    ExperimentSpec,
    MetricSummary,
    RunReport,
    Verdict,
    derive_trial_seed,
    recovered_raw_key,
    replay,
    run_experiment,
)
from .planes import QubitBlock
from .postprocessing import (
    CssPair,
    LinearCode,
    OneTimePad,
    ReconcileResult,
    StreamResult,
    binary_entropy,
    bits_to_hex,
    build_canonical_css,
    draw_group_codeword,
    hex_to_bits,
    key_rate,
    load_matrix,
    otp_send,
    reconcile,
    reconcile_stream,
    reconcile_streams,
    syndrome_decode,
    xor_bits,
)
from .protocol import (
    PartySecrets,
    announce_bases,
    combined_bases,
    encode_block,
    expanded_bit_vectors,
    extract_raw_key,
    generate_secrets,
    prepare_block,
    run_check,
    run_protocol,
    run_trials,
    split_for_receivers,
)
from .qubits import (
    Pauli,
    Qubit,
    apply_hadamard,
    apply_pauli,
    apply_value_flip,
    encode,
    measure,
)
from .transcript import AdversaryRecord, Event, Transcript, parse

__version__ = "0.2.0"
