"""FaultPlan/FaultWindow semantics: validation, duty cycling, the
monotone-nesting property of the degradation preset, and the
deterministic RNG."""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultWindow, SplitMix64


# -- windows ---------------------------------------------------------------
def test_empty_window_rejected():
    with pytest.raises(ValueError):
        FaultWindow(kind=FaultKind.ACCEL_STALL, start=100, end=100)
    with pytest.raises(ValueError):
        FaultWindow(kind=FaultKind.ACCEL_STALL, start=100, end=50)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_probability_range_enforced(bad):
    with pytest.raises(ValueError):
        FaultWindow(kind=FaultKind.NOC_DROP, start=0, end=10,
                    probability=bad)


def test_period_and_duty_validation():
    with pytest.raises(ValueError):
        FaultWindow(kind=FaultKind.DRAM_SPIKE, start=0, end=10, period=0)
    with pytest.raises(ValueError):
        FaultWindow(kind=FaultKind.DRAM_SPIKE, start=0, end=10, duty=1.2)


def test_kind_must_be_a_fault_kind():
    # A bare string would be stored and never fire: ``active`` matches
    # kinds by identity.
    with pytest.raises(TypeError,
                       match=r"FaultWindow\.kind must be a FaultKind "
                             r"\(got 'accel_stall'\)"):
        FaultWindow(kind="accel_stall", start=0, end=10)


@pytest.mark.parametrize("field", ["start", "end"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_bounds_rejected(field, bad):
    # A NaN bound never fires; an outage to an infinite end dies in the
    # calendar.
    bounds = dict(start=0.0, end=10.0)
    bounds[field] = float(bad)
    with pytest.raises(ValueError,
                       match=rf"FaultWindow\.{field} must be finite "
                             rf"\(got {bad}\)"):
        FaultWindow(kind=FaultKind.ACCEL_OUTAGE, **bounds)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_period_rejected(bad):
    with pytest.raises(ValueError,
                       match=rf"FaultWindow\.period must be positive and "
                             rf"finite \(got {bad}\)"):
        FaultWindow(kind=FaultKind.ACCEL_STALL, start=0, end=10,
                    period=float(bad))


@pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
def test_magnitude_must_be_non_negative_and_finite(bad):
    # A negative stall dies mid-run on a negative timeout, a NaN or
    # infinite one in the calendar; a negative spike silently lowers
    # DRAM latency.
    with pytest.raises(ValueError,
                       match=r"FaultWindow\.magnitude must be >= 0 and "
                             r"finite"):
        FaultWindow(kind=FaultKind.ACCEL_STALL, start=0, end=10,
                    magnitude=bad)


def test_plan_windows_must_be_fault_windows():
    with pytest.raises(TypeError,
                       match=r"FaultPlan\.windows must hold FaultWindow "
                             r"entries \(got dict\)"):
        FaultPlan(windows=({"kind": "accel_stall", "start": 0,
                            "end": 10}, ))


def test_plain_window_active_over_half_open_interval():
    window = FaultWindow(kind=FaultKind.ACCEL_OUTAGE, start=10, end=20)
    assert not window.active(9.99)
    assert window.active(10)
    assert window.active(19.99)
    assert not window.active(20)
    assert window.remaining(15) == 5
    assert window.remaining(25) == 0


def test_duty_cycled_window_fires_first_fraction_of_each_period():
    window = FaultWindow(kind=FaultKind.ACCEL_STALL, start=0, end=1000,
                        period=100, duty=0.25)
    assert window.active(0) and window.active(24.9)
    assert not window.active(25) and not window.active(99)
    assert window.active(100)       # next period's burst
    assert window.remaining(110) == pytest.approx(15)
    assert window.remaining(50) == 0


def test_covers_slice():
    machine_wide = FaultWindow(kind=FaultKind.ACCEL_STALL, start=0, end=1)
    targeted = FaultWindow(kind=FaultKind.ACCEL_STALL, start=0, end=1,
                           slice_id=3)
    assert machine_wide.covers_slice(0) and machine_wide.covers_slice(7)
    assert targeted.covers_slice(3) and not targeted.covers_slice(4)


# -- plans -----------------------------------------------------------------
def test_empty_plan_is_falsy_and_describes_itself():
    plan = FaultPlan()
    assert not plan
    assert "empty" in plan.describe()


def test_active_filters_kind_time_and_slice():
    plan = FaultPlan(windows=(
        FaultWindow(kind=FaultKind.ACCEL_OUTAGE, start=0, end=50,
                    slice_id=1),
        FaultWindow(kind=FaultKind.DRAM_SPIKE, start=0, end=50),
    ))
    assert len(list(plan.active(FaultKind.ACCEL_OUTAGE, 10, 1))) == 1
    assert len(list(plan.active(FaultKind.ACCEL_OUTAGE, 10, 2))) == 0
    assert len(list(plan.active(FaultKind.ACCEL_OUTAGE, 60, 1))) == 0
    assert len(list(plan.active(FaultKind.DRAM_SPIKE, 10, 5))) == 1


def test_slice_outage_preset():
    plan = FaultPlan.slice_outage(2, start=100, end=900)
    assert len(plan.windows) == 1
    window = plan.windows[0]
    assert window.kind is FaultKind.ACCEL_OUTAGE
    assert window.slice_id == 2
    assert (window.start, window.end) == (100, 900)
    assert "accel_outage" in plan.describe()


def test_degradation_intensity_zero_is_empty():
    assert not FaultPlan.degradation(0.0)


def test_degradation_intensity_validated():
    with pytest.raises(ValueError):
        FaultPlan.degradation(1.5)
    with pytest.raises(ValueError):
        FaultPlan.degradation(-0.1)


def test_degradation_coverage_nests_across_intensities():
    """Every cycle faulted at intensity x is faulted at every y > x —
    the structural guarantee behind the sweep's monotonicity check."""
    def window(plan, kind):
        (found, ) = [w for w in plan.windows if w.kind is kind]
        return found

    low = FaultPlan.degradation(0.25)
    high = FaultPlan.degradation(0.75)
    stall_low = window(low, FaultKind.ACCEL_STALL)
    stall_high = window(high, FaultKind.ACCEL_STALL)
    for now in range(0, 20_000, 37):
        if stall_low.active(now):
            assert stall_high.active(now), \
                f"cycle {now} faulted at 0.25 but not at 0.75"
    assert stall_high.magnitude > stall_low.magnitude
    drop_low = window(low, FaultKind.NOC_DROP)
    drop_high = window(high, FaultKind.NOC_DROP)
    assert drop_high.probability > drop_low.probability


# -- the RNG ---------------------------------------------------------------
def test_splitmix64_deterministic():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(16)] \
        == [b.next_u64() for _ in range(16)]


def test_splitmix64_uniform_range():
    rng = SplitMix64(7)
    for _ in range(200):
        assert 0.0 <= rng.uniform() < 1.0


def test_splitmix64_fork_is_independent_and_keyed():
    parent = SplitMix64(99)
    child_a = parent.fork(1)
    child_b = parent.fork(2)
    assert child_a.next_u64() != child_b.next_u64()
    # Forking does not perturb the parent stream.
    reference = SplitMix64(99)
    assert parent.next_u64() == reference.next_u64()
