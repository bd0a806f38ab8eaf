//! The fault-plan runner (`common::plan`) itself: the ordering rules the
//! failure suites rely on, and what a run reports about a step that
//! never fired.

mod common;

use common::plan::{Action, Drive, FaultPlan, State};
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
