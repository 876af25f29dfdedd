import adder_spir

PUBLIC_NAMES = [
    "BitString", "CapacityShortfall", "ChannelRound", "ConfigurationError", "FileStore",
    "IndexPartition", "JointDistribution", "LeakageReport", "MUTATIONS",
    "MultifilePlan", "MultifileTranscript", "OtpLemmaReport", "PartyRandomness", "ProtocolParams", "RateReport",
    "RoundOpening", "Selection", "SelectionSets", "SessionStreams", "StateBudgetExceeded", "Transcript", "__version__",
    "abort_check", "achieved_rates", "audit", "build_chain",
    "build_selection_sets", "classify_indices", "client_recover", "conditional_entropy_f",
    "decode_sets", "enumerate_protocol", "execute_multifile", "execute_session",
    "flatten_rounds", "open_round", "otp_lemma_check", "partition", "party_stream", "plan_multifile", "reconstruct",
    "region_check", "request_schedule", "round_selection", "run_multifile",
    "run_session_adaptive", "sample_filestore", "sample_uniform", "server_mask", "session_streams", "transmit",
    "trial_seeds",
]


def test_public_names_are_pinned():
    assert sorted(adder_spir.__all__) == PUBLIC_NAMES
    assert len(set(adder_spir.__all__)) == len(adder_spir.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from adder_spir import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(adder_spir, name) is namespace[name]
