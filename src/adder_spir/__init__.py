"""Dual-source symmetric private retrieval over a noiseless binary adder channel.

Two servers with independent file libraries answer a client over a shared
adder channel; ambiguity in the channel sum replaces shared randomness and
data replication.  The package simulates the protocol end to end, audits
its information leakage exactly on tiny instances, and checks measured
rates against the rate region, whose residual-entropy cap ``capacity``
proves.
"""

from types import ModuleType as _ModuleType

from .bits import BitString, sample_uniform
from .capacity import RateReport, achieved_rates, conditional_entropy_f, region_check
from .channel import ChannelRound, classify_indices, transmit
from .infotheory import JointDistribution, OtpLemmaReport, otp_lemma_check
from .model import (
    CapacityShortfall,
    ConfigurationError,
    FileStore,
    PartyRandomness,
    ProtocolParams,
    Selection,
    SessionStreams,
    party_stream,
    sample_filestore,
    session_streams,
    trial_seeds,
)
from .multifile import (
    MultifilePlan,
    MultifileTranscript,
    build_chain,
    execute_multifile,
    flatten_rounds,
    plan_multifile,
    reconstruct,
    request_schedule,
    round_selection,
    run_multifile,
)
from .oracle import (
    LeakageReport,
    StateBudgetExceeded,
    audit,
    enumerate_protocol,
)
from .protocol import (
    MUTATIONS,
    IndexPartition,
    RoundOpening,
    SelectionSets,
    Transcript,
    abort_check,
    build_selection_sets,
    client_recover,
    decode_sets,
    execute_session,
    open_round,
    partition,
    run_session_adaptive,
    server_mask,
)

__version__ = "0.1.0"

# The imports above are the list of public names.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
