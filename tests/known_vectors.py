"""Hand-checkable 18-qubit reference vectors for two senders and three receivers.

Every expected value below follows from the encoding rules by hand: the first
sender's strings pick the initial states, the second sender's strings flip
values and swap bases, receiver l takes positions 3j + l, matched-basis
measurement returns the XOR of the two value bits, and the raw key XORs the
three receivers' bits on the unchecked blocks.
"""

import numpy as np

from mpqss import PartySecrets, ProtocolConfig, Qubit, QubitBlock

VALUES_1 = (1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0)
BASES_1 = (0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1)
VALUES_2 = (1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1)
BASES_2 = (1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1)

FIRST_BLOCK_KETS = "|1> |+> |0> |-> |+> |1> |+> |-> |1> |0> |+> |0> |-> |1> |-> |0> |1> |+>"
SECOND_BLOCK_KETS = "|+> |-> |1> |1> |0> |0> |-> |+> |-> |+> |0> |-> |-> |0> |+> |+> |1> |1>"
RECEIVER_KETS = (
    "|+> |1> |-> |+> |-> |+>",
    "|-> |0> |+> |0> |0> |1>",
    "|1> |0> |-> |-> |+> |1>",
)
DECODED = ((0, 1, 1, 0, 1, 0), (1, 0, 0, 0, 0, 1), (1, 0, 1, 1, 0, 1))
CHECK_BLOCKS = (0, 4)  # the revealed positions 1,2,3 and 13,14,15
RAW_KEY = (1, 0, 1, 0)
KEY_CONTRIBUTIONS = ((1, 1, 0, 0), (0, 0, 0, 1), (0, 1, 1, 1))


def config(**overrides) -> ProtocolConfig:
    base = dict(
        senders=2,
        receivers=3,
        blocks=6,
        check_fraction=1 / 3,  # two of the six blocks get revealed
        seed=0,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def secrets() -> list[PartySecrets]:
    return [
        PartySecrets("alice1", VALUES_1, BASES_1),
        PartySecrets("alice2", VALUES_2, BASES_2),
    ]


def from_qubits(qubits) -> QubitBlock:
    """Planes of a per-position list of ``Qubit``, None marking a lost position."""
    live = [Qubit(0, 0) if q is None else q for q in qubits]
    return QubitBlock(
        np.array([q.value for q in live], dtype=np.uint8),
        np.array([q.basis for q in live], dtype=np.uint8),
        np.array([q is None for q in qubits], dtype=bool),
    )
