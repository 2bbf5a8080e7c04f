"""Tests for processes, the proportional scheduler, and competitions."""

import os
import subprocess
import sys

import pytest

from paper.direct import DirectCompetition, TrialThenSwitch
from paper.scheduler import ProportionalScheduler
from paper.synthetic import SyntheticProcess
from paper.two_stage import TwoStageCompetition
from repro.competition.process import Process
from repro.competition.two_stage import SwitchCriterion, SwitchDecision
from repro.errors import CompetitionError


def test_synthetic_process_completes_at_total_cost():
    process = SyntheticProcess("p", total_cost=3.0, step_cost=1.0)
    assert not process.step()
    assert not process.step()
    assert process.step()
    assert process.finished
    assert process.meter.total == pytest.approx(3.0)


def test_synthetic_process_partial_last_step():
    process = SyntheticProcess("p", total_cost=2.5, step_cost=1.0)
    while not process.step():
        pass
    assert process.meter.total == pytest.approx(2.5)


def test_zero_cost_process_finishes_immediately():
    process = SyntheticProcess("p", total_cost=0.0)
    assert process.step()


def test_step_on_finished_process_raises():
    process = SyntheticProcess("p", total_cost=0.0)
    process.step()
    with pytest.raises(RuntimeError):
        process.step()


def test_abandon_keeps_sunk_cost():
    process = SyntheticProcess("p", total_cost=10.0)
    process.step()
    process.abandon()
    assert process.abandoned and not process.active
    assert process.meter.total == pytest.approx(1.0)


def test_abandon_after_finish_is_noop():
    process = SyntheticProcess("p", total_cost=1.0)
    process.step()
    process.abandon()
    assert process.finished and not process.abandoned


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        SyntheticProcess("p", total_cost=-1)


# -- scheduler ----------------------------------------------------------------


def test_scheduler_requires_processes():
    with pytest.raises(CompetitionError):
        ProportionalScheduler([])


def test_scheduler_validates_weights():
    process = SyntheticProcess("p", 5)
    with pytest.raises(CompetitionError):
        ProportionalScheduler([process], [1.0, 2.0])
    with pytest.raises(CompetitionError):
        ProportionalScheduler([process], [0.0])


def test_scheduler_proportional_costs():
    fast = SyntheticProcess("fast", total_cost=1000)
    slow = SyntheticProcess("slow", total_cost=1000)
    scheduler = ProportionalScheduler([fast, slow], [3.0, 1.0])
    for _ in range(400):
        scheduler.next_process().step()
    assert fast.meter.total == pytest.approx(3 * slow.meter.total, rel=0.05)


def test_scheduler_stops_on_first_finish():
    quick = SyntheticProcess("quick", total_cost=3)
    endless = SyntheticProcess("endless", total_cost=10_000)
    scheduler = ProportionalScheduler([quick, endless])
    winner = scheduler.run(stop_on_first_finish=True)
    assert winner is quick
    assert endless.active


def test_scheduler_until_predicate():
    process = SyntheticProcess("p", total_cost=100)
    scheduler = ProportionalScheduler([process])
    result = scheduler.run(until=lambda: process.meter.total >= 5)
    assert result is None
    assert process.meter.total == pytest.approx(5.0)


def test_scheduler_returns_none_when_all_inactive():
    process = SyntheticProcess("p", total_cost=1)
    process.step()
    scheduler = ProportionalScheduler([process])
    assert scheduler.run() is None


def test_scheduler_total_cost():
    a, b = SyntheticProcess("a", 2), SyntheticProcess("b", 2)
    scheduler = ProportionalScheduler([a, b])
    scheduler.run(stop_on_first_finish=False)
    assert scheduler.total_cost() == pytest.approx(4.0)


# -- trial-then-switch ------------------------------------------------------------


def test_trial_wins_within_budget():
    trial = SyntheticProcess("trial", total_cost=3)
    safe = SyntheticProcess("safe", total_cost=100)
    outcome = TrialThenSwitch(trial, safe, trial_budget=10).run()
    assert outcome.winner is trial
    assert outcome.total_cost == pytest.approx(3.0)
    assert outcome.abandoned == ()
    assert safe.meter.total == 0.0


def test_trial_abandoned_at_budget():
    trial = SyntheticProcess("trial", total_cost=1000)
    safe = SyntheticProcess("safe", total_cost=20)
    outcome = TrialThenSwitch(trial, safe, trial_budget=10).run()
    assert outcome.winner is safe
    assert trial.abandoned
    assert outcome.total_cost == pytest.approx(10 + 20)


def test_trial_budget_validation():
    with pytest.raises(CompetitionError):
        TrialThenSwitch(SyntheticProcess("t", 1), SyntheticProcess("s", 1), -1)


# -- direct competition --------------------------------------------------------------


def test_direct_competition_first_finisher_wins():
    safe = SyntheticProcess("safe", total_cost=50)
    challenger = SyntheticProcess("challenger", total_cost=10)
    outcome = DirectCompetition(safe, [challenger]).run()
    assert outcome.winner is challenger
    assert safe in outcome.abandoned
    # equal speeds: both progressed about equally until the win
    assert outcome.total_cost == pytest.approx(20.0, abs=2.0)


def test_direct_competition_switch_budget():
    safe = SyntheticProcess("safe", total_cost=30)
    challenger = SyntheticProcess("challenger", total_cost=10_000)
    outcome = DirectCompetition(safe, [challenger], switch_budget=5).run()
    assert outcome.winner is safe
    assert challenger.abandoned
    assert challenger.meter.total <= 6.0


def test_direct_competition_requires_challengers():
    with pytest.raises(CompetitionError):
        DirectCompetition(SyntheticProcess("s", 1), [])


def test_direct_competition_speed_ratio():
    safe = SyntheticProcess("safe", total_cost=100)
    challenger = SyntheticProcess("challenger", total_cost=100)
    outcome = DirectCompetition(
        safe, [challenger], safe_speed=4.0, challenger_speed=1.0
    ).run()
    assert outcome.winner is safe
    assert challenger.meter.total == pytest.approx(25.0, abs=2.0)


# -- two-stage competition ----------------------------------------------------------


def test_switch_criterion_projection():
    criterion = SwitchCriterion(threshold=0.95, scan_cost_limit_fraction=0.5)
    assert criterion.evaluate(96.0, 1.0, 100.0) is SwitchDecision.ABANDON_PROJECTED
    assert criterion.evaluate(90.0, 1.0, 100.0) is SwitchDecision.CONTINUE
    assert criterion.evaluate(None, 1.0, 100.0) is SwitchDecision.CONTINUE


def test_switch_criterion_scan_cost():
    criterion = SwitchCriterion(threshold=0.95, scan_cost_limit_fraction=0.5)
    assert criterion.evaluate(None, 50.0, 100.0) is SwitchDecision.ABANDON_SCAN_COST
    assert criterion.evaluate(10.0, 49.0, 100.0) is SwitchDecision.CONTINUE


def test_switch_criterion_zero_guaranteed():
    criterion = SwitchCriterion()
    assert criterion.evaluate(None, 0.0, 0.0) is SwitchDecision.ABANDON_PROJECTED


def test_two_stage_commits_cheap_first_stage():
    stage = SyntheticProcess("stage", total_cost=5)
    competition = TwoStageCompetition(
        stage, projector=lambda p: 10.0, guaranteed_best=lambda: 100.0
    )
    outcome = competition.run()
    assert outcome.committed
    assert outcome.first_stage_cost == pytest.approx(5.0)


def test_two_stage_abandons_on_projection():
    stage = SyntheticProcess("stage", total_cost=1000)
    projections = iter([None, 50.0, 99.0])
    competition = TwoStageCompetition(
        stage,
        projector=lambda p: next(projections, 99.0),
        guaranteed_best=lambda: 100.0,
    )
    outcome = competition.run()
    assert not outcome.committed
    assert outcome.decision is SwitchDecision.ABANDON_PROJECTED
    assert stage.abandoned
    assert outcome.first_stage_cost < 10


def test_two_stage_reacts_to_guaranteed_best_drop():
    """Dynamic readjustment: a falling guaranteed best ends the stage."""
    stage = SyntheticProcess("stage", total_cost=1000)
    guaranteed = {"value": 1000.0}
    competition = TwoStageCompetition(
        stage, projector=lambda p: 100.0, guaranteed_best=lambda: guaranteed["value"]
    )

    class Stepper(Process):
        def _do_step(self) -> bool:
            return True

    # run a few steps with a high guaranteed best, then drop it
    for _ in range(3):
        stage.step()
    guaranteed["value"] = 101.0
    outcome = competition.run()
    assert not outcome.committed
    assert outcome.decision is SwitchDecision.ABANDON_PROJECTED


# -- the package resolves its exports on first use ---------------------------


def test_package_exports_resolve_lazily():
    import repro.competition as package
    from repro.competition import LShapedCost, Process as exported
    from repro.competition.model import LShapedCost as defined

    assert LShapedCost is defined and exported is Process
    assert len(package.__all__) == 6
    for name in package.__all__:
        assert getattr(package, name).__name__ == name
    with pytest.raises(AttributeError):
        package.no_such_export


def test_import_repro_does_not_load_scipy():
    # the engine needs competition.process / two_stage only; model.py (the
    # Section 3 arithmetic) is what imports scipy.optimize
    program = (
        "import sys, repro; repro.connect().execute('create table T (A int)'); "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
