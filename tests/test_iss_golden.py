"""The ISS ground truth, pinned payload for payload.

``data/golden_iss.json`` holds the ``cycle_result_to_dict`` output of
:class:`~repro.cycle.EventEngine` — the exact ``iss`` artifact the run
store keeps — for the ``fig5_models`` workloads, FFT, PHM, locks,
ports, bursts, every arbiter, one grant log and one budget abort
(see ``generate_golden_iss.py``).  Any difference is a change in the
ground truth every accuracy number is scored against.
"""

import json

import pytest

from generate_golden_iss import ISS_GOLDEN_PATH, iter_iss_cases

GOLDEN = json.loads(ISS_GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = dict(iter_iss_cases())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_iss_payload_matches_golden(key):
    assert CASES[key]() == GOLDEN[key]
