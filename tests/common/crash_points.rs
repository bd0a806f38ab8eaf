//! The structure-change suites' three crash points, written once for
//! splits, merges and moves. A suite (`tests/{splits,merges,moves}.rs`)
//! supplies what differs — its cluster, its load, its seeds and a few
//! parameters ([`CrashPoints`]) — and each crash point is one schedule
//! here:
//!
//! 1. [`CrashPoints::before_intent`]: the changing server dies while the
//!    change is only server-local state;
//! 2. [`CrashPoints::after_intent`]: it dies once the intent is durable
//!    but before the map flip, and the master must roll the change back;
//! 3. [`CrashPoints::after_apply`]: the change is applied, and the host
//!    of its output dies.
//!
//! Every schedule ends with the same checks ([`Bank::assert_recovered`])
//! and pins the run's [`fingerprint`]. It holds its plans' reports to
//! the end, so any failure prints what fired (`plan::Report`).

use super::bank::{run_until, Bank};
use super::plan::{Action, Drive, FaultPlan, Report, State, Victim};
use super::{crash_for_adjacency, fingerprint};
use cumulo_core::{Cluster, History};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;
use std::cell::Cell;
use std::rc::Rc;

const fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// What one structure-change suite supplies.
pub struct CrashPoints {
    pub kind: ChangeKind,
    /// The suite's cluster for a seed.
    pub cluster: fn(u64) -> Cluster,
    /// One round of load. It counts committed transfers into its second
    /// argument; the round number runs on across a whole schedule.
    pub load: fn(&Cluster, &Rc<Cell<u32>>, u64),
    /// The bank the load transfers between.
    pub bank: Bank,
    /// Whether each schedule starts with [`crash_for_adjacency`]'s setup
    /// crash: a merge needs an adjacent co-hosted pair of regions.
    pub adjacency: bool,
    /// Crash point 2's poll step: the window between the durable intent
    /// and the flip is a handful of DFS marker writes wide.
    pub intent_step: SimDuration,
}

/// One schedule's cluster, with what its load and its audit keep.
struct Schedule<'s> {
    suite: &'s CrashPoints,
    cluster: Cluster,
    history: History,
    committed: Rc<Cell<u32>>,
    round: Cell<u64>,
}

impl<'s> Schedule<'s> {
    fn new(suite: &'s CrashPoints, seed: u64) -> Self {
        let cluster = (suite.cluster)(seed);
        let history = cluster.attach_history();
        let schedule = Schedule {
            suite,
            cluster,
            history,
            committed: Rc::new(Cell::new(0)),
            round: Cell::new(0),
        };
        if suite.adjacency {
            crash_for_adjacency(&schedule.cluster, &format!("seed {seed}"), || {
                schedule.load(&schedule.cluster)
            });
        }
        schedule
    }

    /// Fires the suite's next round of load.
    fn load(&self, cluster: &Cluster) {
        let round = self.round.replace(self.round.get() + 1);
        (self.suite.load)(cluster, &self.committed, round);
    }

    /// `rounds` rounds of `tick` under the suite's load.
    fn drive(&self, rounds: u64, tick: SimDuration) -> Drive<'_> {
        Drive::rounds(rounds, tick).load(|cluster, _| self.load(cluster))
    }

    /// Runs `plan` through 600 rounds of 200 ms, until it fired.
    fn wait(&self, plan: &FaultPlan) -> Report {
        plan.run(&self.cluster, self.drive(600, ms(200)).until_fired())
    }

    /// `rounds` more rounds of load, `tick` apart.
    fn keep_loading(&self, rounds: u64, tick: SimDuration) {
        FaultPlan::new().run(&self.cluster, self.drive(rounds, tick));
    }

    fn metric(&self, field: &str) -> u64 {
        let name = format!("master.{}.{field}", self.suite.kind.name());
        self.cluster.metrics.sum(&name)
    }

    /// Drains, then the checks every crash point ends with.
    fn assert_recovered(&self) {
        self.cluster.run_for(SimDuration::from_secs(30));
        let label = format!("{} x failover", self.suite.kind.name());
        let bank = self.suite.bank;
        bank.assert_recovered(&self.cluster, &self.history, self.committed.get(), &label);
    }
}

impl CrashPoints {
    /// Crash point 1: load runs until a candidacy of the suite's kind is
    /// accepted somewhere while no intent is persisted, and that server
    /// dies mid-window (the window spans the pre-change flush, so coarse
    /// polling catches it). Nothing durable mentions the change; failover
    /// recovers its inputs as if it had never been considered.
    pub fn before_intent(&self, seed: u64, pin: [u64; 4]) {
        let s = Schedule::new(self, seed);
        let window = State::Changing {
            kind: self.kind,
            durable: false,
        };
        let crash = Action::CrashServer(Victim::Observed);
        let plan = FaultPlan::new().when(window, SimDuration::ZERO, ms(10), crash);
        let report = s.wait(&plan);
        let what = format!("no {} candidacy was ever observed", self.kind.name());
        report.assert_fired(0, &what);
        assert_eq!(
            s.metric("intents_persisted"),
            0,
            "crash point 1 requires no durable intent"
        );
        // Keep transferring through the failover, then drain.
        s.keep_loading(20, ms(400));
        s.assert_recovered();
        assert_eq!(fingerprint(&s.cluster), pin, "run fingerprint");
    }

    /// Crash point 2: the intent is durable but the change never reached
    /// the region map. The master must roll it back — the inputs' files
    /// and WAL still cover everything, and no client ever saw an output
    /// id — and recover the inputs on a surviving server.
    pub fn after_intent(&self, seed: u64, pin: [u64; 4]) {
        let s = Schedule::new(self, seed);
        let window = State::Changing {
            kind: self.kind,
            durable: true,
        };
        let crash = Action::CrashServer(Victim::Observed);
        let plan = FaultPlan::new().when(window, SimDuration::ZERO, self.intent_step, crash);
        let report = s.wait(&plan);
        report.assert_fired(
            0,
            "never caught the intent-persisted window (if the change completed first, \
             lower the step size)",
        );
        // The master's failover must roll the intent back (never serve
        // the outputs of an unapplied change).
        let rolled = run_until(&s.cluster, ms(100), SimDuration::from_secs(30), || {
            s.metric("rolled_back") > 0
        });
        assert!(rolled, "failover did not roll the durable intent back");
        s.keep_loading(20, ms(400));
        s.assert_recovered();
        assert_eq!(fingerprint(&s.cluster), pin, "run fingerprint");
    }

    /// Crash point 3: the change is applied and its output absorbs writes
    /// for eight rounds, then the output's host dies. The output fails
    /// over like an ordinary region, its recovered state made of the
    /// files the change left it plus WAL records that may predate the
    /// change (the master remaps those by row).
    pub fn after_apply(&self, seed: u64, pin: [u64; 4]) {
        let s = Schedule::new(self, seed);
        let applied = State::Applied(self.kind);
        let plan = FaultPlan::new().when(applied, ms(200), ms(200), Action::Note);
        let report = s.wait(&plan);
        report.assert_fired(0, &format!("no {} was ever applied", self.kind.name()));
        // The crash's report is held too: a failure after it prints its
        // victim.
        let crash = Action::CrashServer(Victim::Output(self.kind));
        let _crash = FaultPlan::new()
            .at(ms(300) * 8, crash)
            .run(&s.cluster, s.drive(8, ms(300)));
        s.keep_loading(25, ms(400));
        s.assert_recovered();
        // The output really did fail over (beside any setup crash).
        assert!(
            s.cluster.master.failover_count() > u64::from(self.adjacency),
            "no failover of the output was processed"
        );
        assert_eq!(fingerprint(&s.cluster), pin, "run fingerprint");
    }
}
