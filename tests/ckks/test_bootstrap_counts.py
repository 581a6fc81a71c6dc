"""Pinned functional op counts of one warm bootstrap at BENCH_PARAMS.

Op counts are machine-independent, so they are gated exactly.  How they
relate to the analytic model's ``bootstrap_blocks`` is in DESIGN.md
("EvalMod: functional counts vs the model").
"""

from collections import Counter

import pytest

from repro.ckks import bootstrap, evaluator
from repro.ckks.fixture import bootstrap_fixture
from repro.ckks.polyeval import BABY_STEPS

STAGES = ("_coeff_to_slot", "_eval_mod", "_slot_to_coeff")

#: (stage, op) -> calls in one warm bootstrap.
EXPECTED = {
    ("_coeff_to_slot", "key_switch"): 15,
    ("_coeff_to_slot", "rescale"): 8,
    ("_eval_mod", "key_switch"): 38,
    ("_eval_mod", "multiply"): 38,
    ("_eval_mod", "rescale"): 68,
    ("_slot_to_coeff", "key_switch"): 14,
    ("_slot_to_coeff", "rescale"): 8,
}


def _counting(counts, stage, key, fn):
    def wrapper(*args, **kwargs):
        counts[(stage[0], key)] += 1
        return fn(*args, **kwargs)
    return wrapper


def _staged(stage, name, fn):
    def wrapper(*args, **kwargs):
        stage[0] = name
        try:
            return fn(*args, **kwargs)
        finally:
            stage[0] = None
    return wrapper


@pytest.fixture(scope="module")
def fixture():
    return bootstrap_fixture()


@pytest.fixture()
def counted(fixture, monkeypatch):
    """Per-stage call counts of one warm bootstrap, and its output."""
    counts, stage = Counter(), [None]
    monkeypatch.setattr(evaluator, "key_switch", _counting(
        counts, stage, "key_switch", evaluator.key_switch))
    for op in ("multiply", "rescale"):
        monkeypatch.setattr(evaluator.CkksEvaluator, op, _counting(
            counts, stage, op, getattr(evaluator.CkksEvaluator, op)))
    for name in STAGES:
        monkeypatch.setattr(bootstrap.Bootstrapper, name, _staged(
            stage, name, getattr(bootstrap.Bootstrapper, name)))
    out = fixture.bts.bootstrap(fixture.ct_low)
    return counts, out


def test_per_stage_counts_are_pinned(counted):
    counts, _ = counted
    assert dict(counts) == EXPECTED
    assert sum(n for (_, op), n in counts.items() if op == "key_switch") \
        == 67


def test_eval_mod_multiplies_follow_the_split_plan(counted):
    counts, _ = counted
    # Per half: baby steps T_2..T_7, squarings T_8..T_64, and one
    # product per split of the degree-79 plan's 10 leaves.
    baby, giant, leaves = BABY_STEPS - 2, 4, 10
    assert counts[("_eval_mod", "multiply")] == 2 * (baby + giant
                                                     + leaves - 1)


def test_output_level_follows_depth(counted, fixture):
    _, out = counted
    assert out.level_count == (fixture.params.level_count
                               - fixture.bts.depth())
    assert fixture.decrypt_error(out) < 2.0 ** -8
