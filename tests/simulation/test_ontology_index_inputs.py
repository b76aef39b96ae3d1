"""Seeded learner traffic is the same over the indexed ontology and the scans.

The sentence generator feeds ``rng.choice`` from ``operations_of``,
``properties_of`` and ``parents``, so a change in the order or content
of those answers would change every generated utterance downstream of
it, including every benchmark trace.  This pins the generated text and
its ground truth to what the relation-scan implementation produced.
"""

from __future__ import annotations

import pytest

from repro.ontology.domains import build_data_structure_ontology
from repro.simulation import LearnerProfile, SimulatedLearner
from scan_ontology import scan_twin

PROFILES = {
    "default": LearnerProfile(),
    "no syntax errors": LearnerProfile(
        question_rate=0.3, syntax_error_rate=0.0, semantic_error_rate=0.35, chitchat_rate=0.0
    ),
}


def utterances(ontology, seed: int, profile: LearnerProfile, count: int = 300) -> list:
    learner = SimulatedLearner("learner", ontology, profile=profile, seed=seed)
    return [learner.next_utterance() for _ in range(count)]


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", [1, 7, 13, 2005])
def test_seeded_utterances_match_scan_oracle(seed, profile):
    indexed = build_data_structure_ontology()
    scan = scan_twin(indexed)
    assert utterances(indexed, seed, PROFILES[profile]) == utterances(scan, seed, PROFILES[profile])
