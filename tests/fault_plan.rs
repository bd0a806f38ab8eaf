//! The fault-plan runner (`common::plan`) itself: the ordering rules the
//! failure suites rely on, what a run reports about a step that never
//! fired, and how a failing plan shrinks.

mod common;

use common::plan::{run_or_shrink, Action, Drive, FaultPlan, State, Victim};
use common::small_cluster;
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Steps at equal offsets apply in insertion order, one due after the
/// last round applies at the run's end, and a `When` step whose state
/// never occurs is reported unfired — the assertion on it names the
/// step, the plan and the seed.
#[test]
fn a_plan_fires_in_order_and_names_the_step_that_never_fired() {
    const TICK: SimDuration = SimDuration::from_millis(100);
    let cluster = small_cluster(31);
    let server = cluster.servers[0].node();
    let (coord, other) = (cluster.coord.node(), cluster.servers[1].node());
    let never = State::Applied(ChangeKind::Split);
    let plan = FaultPlan::new()
        .at(TICK * 3, Action::Partition(server, coord))
        .at(TICK * 9, Action::CrashClient(2))
        .at(TICK * 3, Action::Heal(server, coord))
        .at(TICK * 3, Action::Heal(server, other))
        .at(TICK * 3, Action::Partition(server, other))
        .at(TICK, Action::CrashClient(1))
        .when(never, SimDuration::ZERO, TICK, Action::Note);
    let loads = Cell::new(0);
    let drive = Drive::rounds(5, TICK).load(|_, _| loads.set(loads.get() + 1));
    let report = plan.run(&cluster, drive);

    let order: Vec<(usize, SimDuration)> = report.fired.iter().map(|f| (f.step, f.at)).collect();
    assert_eq!(
        order,
        [
            (5, TICK),
            (0, TICK * 3),
            (2, TICK * 3),
            (3, TICK * 3),
            (4, TICK * 3),
            (1, TICK * 5)
        ],
        "fired steps\n{report}"
    );
    assert_eq!(loads.get(), 5, "one load per round");
    assert!(
        !cluster.net.partitioned(server, coord),
        "healed after the cut"
    );
    assert!(cluster.net.partitioned(server, other), "cut after the heal");
    assert!(!cluster.client(1).is_alive() && !cluster.client(2).is_alive());

    assert!(!report.fired(6), "the split state never occurs");
    let unfired = catch_unwind(AssertUnwindSafe(|| {
        report.assert_fired(6, "no split was ever applied")
    }));
    let message = *unfired
        .expect_err("an unfired step fails its assertion")
        .downcast::<String>()
        .expect("a formatted message");
    for part in [
        "no split was ever applied: step 6 (When { state: Applied(Split)",
        "seed 31",
        "plan: FaultPlan { steps: [(At(300.000ms), Partition(",
        "fired: [Fired { step: 5, at: 100.000ms, action: CrashClient(1) }",
    ] {
        assert!(message.contains(part), "{part:?} is not in:\n{message}");
    }
}

/// A failing plan shrinks to the steps its failure needs. Here a
/// schedule "fails" when server 1 and client 2 are both down, so six
/// steps shrink to those two crashes, printed as a literal to paste into
/// a test. Dropping the restart alone leaves the manager down, a failure
/// of another message, so that candidate lost the failure; once the
/// crash is dropped, the restart meets a live manager and does nothing.
/// `run_or_shrink` panics with the first run's message, the label and
/// that literal.
#[test]
fn a_failing_plan_shrinks_to_the_two_steps_it_needs() {
    const TICK: SimDuration = SimDuration::from_millis(100);
    let plan = FaultPlan::new()
        .at(TICK * 4, Action::RestartRecoveryManager)
        .at(TICK, Action::CrashClient(0))
        .at(TICK * 2, Action::CrashRecoveryManager)
        .at(TICK * 3, Action::CrashServer(Victim::Index(1)))
        .at(TICK * 5, Action::CrashClient(2))
        .at(TICK * 6, Action::Note);
    let schedule = |plan: &FaultPlan| {
        let cluster = small_cluster(41);
        let _report = plan.run(&cluster, Drive::rounds(8, TICK));
        assert!(cluster.rm.is_alive(), "the recovery manager is down");
        assert!(
            cluster.servers[1].is_alive() || cluster.client(2).is_alive(),
            "server 1 and client 2 are both down"
        );
    };
    let failed = catch_unwind(AssertUnwindSafe(|| {
        run_or_shrink("seed 41", &plan, schedule)
    }));
    let message = *failed
        .expect_err("the plan fails")
        .downcast::<String>()
        .expect("a formatted message");
    let expected = "server 1 and client 2 are both down
seed 41: the plan of 6 steps shrank in 11 runs (7 candidates lost the failure) to:
FaultPlan::new()
    .at(SimDuration::from_nanos(300000000), Action::CrashServer(Victim::Index(1)))
    .at(SimDuration::from_nanos(500000000), Action::CrashClient(2))";
    assert_eq!(message, expected);
}
