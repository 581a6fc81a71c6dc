"""Pinned functional op counts of one warm bootstrap at BENCH_PARAMS.

Op counts are machine-independent, so they are gated exactly.  How they
relate to the analytic model's ``bootstrap_blocks`` is in DESIGN.md
("EvalMod: functional counts vs the model").
"""

from collections import Counter

import pytest

from repro.ckks import bootstrap, evaluator, instrument
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


#: (stage, engine counter) -> value in one warm bootstrap.  Rescale and
#: ModDown pass a ciphertext's ``b`` and ``a`` through one stacked
#: INTT → BConv → NTT, so each costs one call of each kind, not two.
EXPECTED_ENGINE = {
    ("mod_raise", "ckks.batch_ntt.forward"): 2,
    ("mod_raise", "ckks.batch_ntt.inverse"): 2,
    ("_coeff_to_slot", "ckks.batch_ntt.forward"): 83,
    ("_coeff_to_slot", "ckks.batch_ntt.inverse"): 38,
    ("_coeff_to_slot", "ckks.bconv.batched"): 83,
    ("_eval_mod", "ckks.batch_ntt.forward"): 282,
    ("_eval_mod", "ckks.batch_ntt.inverse"): 144,
    ("_eval_mod", "ckks.bconv.batched"): 198,
    ("_slot_to_coeff", "ckks.batch_ntt.forward"): 43,
    ("_slot_to_coeff", "ckks.batch_ntt.inverse"): 36,
    ("_slot_to_coeff", "ckks.bconv.batched"): 43,
}

#: Engine counters pinned per stage (the rest are in BENCH_functional).
ENGINE_CALLS = ("ckks.batch_ntt.forward", "ckks.batch_ntt.inverse",
                "ckks.bconv.batched")


class _StageTracer:
    """Engine counter sink that files each count under the live stage."""

    def __init__(self, stage):
        self.stage = stage
        self.counters = Counter()

    def count(self, name, value=1.0):
        self.counters[(self.stage[0], name)] += value


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


@pytest.fixture()
def engine_counts(fixture, monkeypatch):
    """Per-stage engine counters of one warm bootstrap."""
    stage = [None]
    monkeypatch.setattr(bootstrap, "mod_raise", _staged(
        stage, "mod_raise", bootstrap.mod_raise))
    for name in STAGES:
        monkeypatch.setattr(bootstrap.Bootstrapper, name, _staged(
            stage, name, getattr(bootstrap.Bootstrapper, name)))
    tracer = _StageTracer(stage)
    previous = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        fixture.bts.bootstrap(fixture.ct_low)
    finally:
        instrument.set_tracer(previous)
    return tracer.counters


def test_ntt_and_bconv_calls_per_stage_are_pinned(engine_counts):
    calls = {key: n for key, n in engine_counts.items()
             if key[1] in ENGINE_CALLS}
    assert calls == EXPECTED_ENGINE
    assert None not in {stage for stage, _ in engine_counts}
    total = Counter()
    for (_, name), n in calls.items():
        total[name] += n
    assert total == {"ckks.batch_ntt.forward": 410,
                     "ckks.batch_ntt.inverse": 220,
                     "ckks.bconv.batched": 324}


def test_stacking_keeps_limb_rows(engine_counts):
    limbs = sum(n for (_, name), n in engine_counts.items()
                if name == "ckks.batch_ntt.limbs")
    assert limbs == 6334
