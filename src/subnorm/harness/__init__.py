"""Verification harness: corpora, check catalog, runner, extremality."""

from .carriers import carrier_names, load_carrier
from .catalog import CATALOG, CHECKS_BY_NAME, CheckSpec
from .generate import (
    GenConfig,
    closure_generated,
    corpus_stream,
    enumerate_relations,
    random_relations,
)
from .maximality import verify_prop41
from .run import (
    CarrierContext,
    Instance,
    exit_code_for,
    replay_counterexample,
    run_suite,
    strip_timing,
    verify_check,
)

__all__ = [
    "CATALOG", "CHECKS_BY_NAME", "CheckSpec", "GenConfig", "CarrierContext",
    "Instance", "carrier_names", "closure_generated",
    "corpus_stream", "enumerate_relations", "load_carrier",
    "exit_code_for", "random_relations", "replay_counterexample",
    "run_suite", "strip_timing", "verify_check", "verify_prop41",
]
