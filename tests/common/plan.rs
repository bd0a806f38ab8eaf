//! Fault plans as values: every failure a suite injects is one step of
//! a [`FaultPlan`], a `Debug`-printable list of `(Trigger, Action)`
//! pairs, and [`FaultPlan::run`] is the one loop that drives a cluster
//! through it.
//!
//! A run is rounds of load ([`Drive`]). Each round applies the steps due
//! at its start, fires the load, advances one tick from where the load
//! left the clock (stopping wherever a step is due inside it), runs the
//! round's check, then applies the every-round steps. What fired comes back as a [`Report`]: each step's
//! offset from the run's start and the action it applied, its victim
//! resolved to an index. It prints with the plan and the seed — in the
//! message of an unfired step's assertion, and on stderr when a test
//! fails while holding it — so a failed run is explained by its own
//! artifacts.
//!
//! The runner draws from `cluster.sim` only where an action does (a
//! [`Action::Roll`]), so a plan is a pure function of the seed.

use cumulo_core::Cluster;
use cumulo_sim::trace::Value;
use cumulo_sim::{NodeId, SimDuration, SimTime};
use cumulo_store::{ChangeKind, RegionId};
use std::fmt;

/// The offset of a step that is never due by time.
const NEVER: SimDuration = SimDuration::from_nanos(u64::MAX);

/// When a step fires. Each `At`, `When` and `End` step fires once; an
/// `EveryRound` step fires at the end of every round.
#[derive(Clone, Copy, Debug)]
pub enum Trigger {
    /// Once this much simulated time has passed since the run began.
    /// Steps at equal offsets fire in insertion order; a step due after
    /// the last round fires at the end of the run.
    At(SimDuration),
    /// The first time `state` is observed. It is polled at offset
    /// `after` and every `step` after that; a poll due as a round starts
    /// comes after that round's load.
    When {
        state: State,
        after: SimDuration,
        step: SimDuration,
    },
    /// At the end of every round, after the round's check.
    EveryRound,
    /// Once, when the last round has run: after any `At` step due then.
    End,
}

/// A cluster state a [`Trigger::When`] waits for. The states that name a
/// server are seen on the first live one, in directory order.
#[derive(Clone, Copy, Debug)]
pub enum State {
    /// A live server has a change of `kind` pending or executing, and the
    /// master has persisted no intent of that kind (`durable: false`),
    /// or has persisted one and applied none (`durable: true`).
    Changing { kind: ChangeKind, durable: bool },
    /// The master has applied a change of `kind`. Names no server.
    Applied(ChangeKind),
    /// A live server has a hosted region mid-compaction.
    Compacting,
    /// A live server hosting a region has a split pending.
    SplitPending,
}

impl State {
    /// `None` while the state does not hold; once it does, the server it
    /// was seen on (`None` inside for a state that names no server).
    fn observe(self, cluster: &Cluster) -> Option<Option<usize>> {
        let metric = |kind: ChangeKind, field: &str| {
            cluster
                .metrics
                .sum(&format!("master.{}.{field}", kind.name()))
        };
        let first_server = |seen: &dyn Fn(usize) -> bool| {
            (0..cluster.servers.len()).find(|&i| cluster.servers[i].is_alive() && seen(i))
        };
        let server = match self {
            State::Changing { kind, durable } => {
                let window = match durable {
                    false => metric(kind, "intents_persisted") == 0,
                    true => metric(kind, "intents_persisted") > 0 && metric(kind, "applied") == 0,
                };
                let changing = |i: usize| cluster.servers[i].pending_change() == Some(kind);
                window.then(|| first_server(&changing)).flatten()
            }
            State::Applied(kind) => return (metric(kind, "applied") > 0).then_some(None),
            State::Compacting => first_server(&|i| {
                let s = &cluster.servers[i];
                s.hosted_regions()
                    .iter()
                    .any(|r| s.compaction_in_progress(*r))
            }),
            State::SplitPending => first_server(&|i| {
                let s = &cluster.servers[i];
                !s.hosted_regions().is_empty() && s.pending_change() == Some(ChangeKind::Split)
            }),
        };
        server.map(Some)
    }
}

/// Which region server a crash takes.
#[derive(Clone, Copy, Debug)]
pub enum Victim {
    /// The i-th region server.
    Index(usize),
    /// The server the step's [`Trigger::When`] saw its state on.
    Observed,
    /// The host of the first region, in key order, that an applied change
    /// of this kind output; the region must be online there.
    Output(ChangeKind),
}

/// What a step does.
#[derive(Clone, Copy, Debug)]
pub enum Action {
    /// Crash a region server.
    CrashServer(Victim),
    /// Crash the i-th client.
    CrashClient(usize),
    /// Partition the i-th region server's node from every other node
    /// (the machine drops off the rack switch; the process stays up).
    IsolateServer(usize),
    /// Remove every installed partition.
    HealAll,
    /// Partition a specific node pair.
    Partition(NodeId, NodeId),
    /// Heal a specific node pair.
    Heal(NodeId, NodeId),
    /// Crash the recovery manager process.
    CrashRecoveryManager,
    /// Restart the recovery manager process.
    RestartRecoveryManager,
    /// The chaos lottery: roll one `[0, 100)` die from the cluster RNG
    /// and maybe crash a random live server (never more than
    /// `max_servers_down` down, always one up), crash a random live
    /// client (only while more than `min_live_clients` live), or crash
    /// or restart the recovery manager. A run with a roll ends by
    /// restarting a recovery manager left down, so its convergence phase
    /// can drain.
    Roll {
        max_servers_down: usize,
        min_live_clients: usize,
    },
    /// No fault: the step only records when its trigger fired.
    Note,
}

impl Action {
    /// The chaos suites' lottery, bounded so the cluster can always still
    /// make progress.
    pub const ROLL: Action = Action::Roll {
        max_servers_down: 2,
        min_live_clients: 2,
    };
}

/// A deterministic list of fault steps; see the module doc.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    steps: Vec<(Trigger, Action)>,
}

/// How a run drives the cluster: `rounds` rounds, each its load and then
/// one `tick`, with the check run as the round ends. A load that drives
/// the clock itself lengthens its round by that much.
pub struct Drive<'a> {
    rounds: u64,
    tick: SimDuration,
    until_fired: bool,
    load: Box<dyn FnMut(&Cluster, u64) + 'a>,
    check: Box<dyn FnMut(&Cluster, u64) + 'a>,
}

impl<'a> Drive<'a> {
    /// `rounds` rounds of `tick`, with no load and no check yet.
    pub fn rounds(rounds: u64, tick: SimDuration) -> Self {
        Drive {
            rounds,
            tick,
            until_fired: false,
            load: Box::new(|_, _| {}),
            check: Box::new(|_, _| {}),
        }
    }

    /// Pure time: one round of `total` with no load.
    pub fn time(total: SimDuration) -> Self {
        Drive::rounds(1, total)
    }

    /// Fires `load(cluster, round)` as each round starts.
    pub fn load(mut self, load: impl FnMut(&Cluster, u64) + 'a) -> Self {
        self.load = Box::new(load);
        self
    }

    /// Runs `check(cluster, round)` as each round ends, before its
    /// every-round steps.
    pub fn check(mut self, check: impl FnMut(&Cluster, u64) + 'a) -> Self {
        self.check = Box::new(check);
        self
    }

    /// Ends the run the moment its last `At` or `When` step fires, or
    /// after its last round if one never does.
    pub fn until_fired(mut self) -> Self {
        self.until_fired = true;
        self
    }
}

/// One step that fired: its index in the plan, its offset from the run's
/// start and the action it applied (a crash's victim as an index). An
/// every-round roll is reported each time it did something.
#[derive(Clone, Copy, Debug)]
pub struct Fired {
    pub step: usize,
    pub at: SimDuration,
    pub action: Action,
}

/// What a run fired, with what a failure message needs beside it.
pub struct Report {
    seed: u64,
    start: SimTime,
    plan: FaultPlan,
    pub fired: Vec<Fired>,
}

impl Report {
    /// The first firing of step `step`, if it fired.
    pub fn first(&self, step: usize) -> Option<&Fired> {
        self.fired.iter().find(|f| f.step == step)
    }

    /// Whether step `step` fired.
    pub fn fired(&self, step: usize) -> bool {
        self.first(step).is_some()
    }

    /// Panics with `what`, the step that never fired, and the report, if
    /// step `step` never fired.
    #[track_caller]
    pub fn assert_fired(&self, step: usize, what: &str) {
        assert!(
            self.fired(step),
            "{what}: step {step} {:?} never fired\n{self}",
            self.plan.steps[step]
        );
    }
}

impl Drop for Report {
    /// A report still held when its test fails prints itself, so any
    /// failure after the run shows the plan, what fired and the seed.
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("fault plan run, {self}");
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}, run from {:?}", self.seed, self.start)?;
        writeln!(f, "plan: {:?}", self.plan)?;
        write!(f, "fired: {:?}", self.fired)
    }
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: a step with this trigger and action.
    pub fn step(mut self, trigger: Trigger, action: Action) -> Self {
        self.steps.push((trigger, action));
        self
    }

    /// Builder: `action` once `offset` has passed.
    pub fn at(self, offset: SimDuration, action: Action) -> Self {
        self.step(Trigger::At(offset), action)
    }

    /// Builder: `action` the first time `state` is seen, polled every
    /// `step` from offset `after` on.
    pub fn when(self, state: State, after: SimDuration, step: SimDuration, action: Action) -> Self {
        self.step(Trigger::When { state, after, step }, action)
    }

    /// Builder: `action` at the end of every round.
    pub fn every_round(self, action: Action) -> Self {
        self.step(Trigger::EveryRound, action)
    }

    /// Builder: `action` once the last round has run.
    pub fn at_end(self, action: Action) -> Self {
        self.step(Trigger::End, action)
    }

    /// Drives `cluster` through the plan as `drive` says and reports
    /// what fired.
    pub fn run(&self, cluster: &Cluster, mut drive: Drive) -> Report {
        let mut run = Run::new(self, cluster);
        for round in 0..drive.rounds {
            run.fire_due(SimDuration::ZERO);
            (drive.load)(cluster, round);
            let end = run.offset() + drive.tick;
            loop {
                run.poll();
                if drive.until_fired && run.all_fired() {
                    return run.report;
                }
                let now = run.offset();
                if now >= end {
                    break;
                }
                cluster.run_for(run.next_stop(end).saturating_sub(now));
            }
            (drive.check)(cluster, round);
            run.fire_each(|t| matches!(t, Trigger::EveryRound));
        }
        // Steps due after the last round fire at its end.
        run.fire_due(NEVER);
        run.fire_each(|t| matches!(t, Trigger::End));
        let roll = self
            .steps
            .iter()
            .position(|(_, a)| matches!(a, Action::Roll { .. }));
        if let Some(roll) = roll.filter(|_| !cluster.rm.is_alive()) {
            run.record(roll, Action::RestartRecoveryManager);
        }
        run.report
    }
}

/// One run's progress through its plan.
struct Run<'p> {
    plan: &'p FaultPlan,
    cluster: &'p Cluster,
    /// The `At` steps, in offset order (ties in insertion order).
    at: Vec<usize>,
    /// Whether each step has fired (an every-round step fires again).
    done: Vec<bool>,
    /// Each `When` step's next poll offset.
    next_poll: Vec<SimDuration>,
    report: Report,
}

impl<'p> Run<'p> {
    fn new(plan: &'p FaultPlan, cluster: &'p Cluster) -> Self {
        let mut at: Vec<usize> = (0..plan.steps.len())
            .filter(|&i| matches!(plan.steps[i].0, Trigger::At(_)))
            .collect();
        at.sort_by_key(|&i| plan.offset(i)); // stable: ties keep insertion order
        let next_poll = plan
            .steps
            .iter()
            .map(|(trigger, _)| match trigger {
                Trigger::When { after, .. } => *after,
                _ => NEVER,
            })
            .collect();
        Run {
            plan,
            cluster,
            at,
            done: vec![false; plan.steps.len()],
            next_poll,
            report: Report {
                seed: cluster.config().seed,
                start: cluster.now(),
                plan: plan.clone(),
                fired: Vec::new(),
            },
        }
    }

    /// Simulated time since the run began.
    fn offset(&self) -> SimDuration {
        self.cluster.now() - self.report.start
    }

    /// Fires every unfired `At` step due by `self.offset() + ahead`.
    fn fire_due(&mut self, ahead: SimDuration) {
        let due = self.offset() + ahead;
        for k in 0..self.at.len() {
            let i = self.at[k];
            if !self.done[i] && self.plan.offset(i) <= due {
                self.apply(i, None);
            }
        }
    }

    /// Fires every step whose trigger `pick` picks, in insertion order.
    fn fire_each(&mut self, pick: fn(Trigger) -> bool) {
        for i in 0..self.plan.steps.len() {
            if pick(self.plan.steps[i].0) {
                self.apply(i, None);
            }
        }
    }

    /// Fires the `At` steps due now, then polls each `When` step due a
    /// poll, in insertion order.
    fn poll(&mut self) {
        self.fire_due(SimDuration::ZERO);
        let now = self.offset();
        for i in 0..self.plan.steps.len() {
            let Trigger::When { state, step, .. } = self.plan.steps[i].0 else {
                continue;
            };
            if self.done[i] || self.next_poll[i] > now {
                continue;
            }
            match state.observe(self.cluster) {
                Some(seen) => self.apply(i, seen),
                None => self.next_poll[i] = now + step,
            }
        }
    }

    /// Whether every `At` and `When` step has fired.
    fn all_fired(&self) -> bool {
        let timed =
            |i: &usize| matches!(self.plan.steps[*i].0, Trigger::At(_) | Trigger::When { .. });
        (0..self.done.len()).filter(timed).all(|i| self.done[i])
    }

    /// The earliest offset up to `end` at which a step is due.
    fn next_stop(&self, end: SimDuration) -> SimDuration {
        (0..self.done.len())
            .filter(|&i| !self.done[i])
            .map(|i| match self.plan.steps[i].0 {
                Trigger::At(offset) => offset,
                Trigger::When { .. } => self.next_poll[i],
                Trigger::EveryRound | Trigger::End => NEVER,
            })
            .filter(|&t| t > self.offset())
            .fold(end, SimDuration::min)
    }

    /// Applies step `i`'s action; `seen` is the server its state was seen
    /// on.
    fn apply(&mut self, i: usize, seen: Option<usize>) {
        self.done[i] = true;
        let action = match self.plan.steps[i].1 {
            Action::CrashServer(victim) => {
                Action::CrashServer(Victim::Index(self.victim(victim, seen)))
            }
            Action::Roll {
                max_servers_down,
                min_live_clients,
            } => match roll(self.cluster, max_servers_down, min_live_clients) {
                Some(action) => action,
                None => return,
            },
            action => action,
        };
        self.record(i, action);
    }

    /// Applies `action` (a crash's victim an index) for step `i` and
    /// reports it.
    fn record(&mut self, step: usize, action: Action) {
        let cluster = self.cluster;
        match action {
            Action::CrashServer(Victim::Index(i)) => cluster.crash_server(i),
            Action::CrashClient(i) => cluster.crash_client(i),
            Action::IsolateServer(i) => cluster.net.isolate(cluster.servers[i].node()),
            Action::HealAll => cluster.net.heal_all(),
            Action::Partition(a, b) => cluster.net.partition(a, b),
            Action::Heal(a, b) => cluster.net.heal(a, b),
            Action::CrashRecoveryManager => cluster.crash_recovery_manager(),
            Action::RestartRecoveryManager => cluster.restart_recovery_manager(),
            Action::Note => {}
            Action::CrashServer(_) | Action::Roll { .. } => unreachable!("resolved in apply"),
        }
        let at = self.offset();
        self.report.fired.push(Fired { step, at, action });
    }

    /// The index of the server `victim` names.
    fn victim(&self, victim: Victim, seen: Option<usize>) -> usize {
        let report = &self.report;
        match victim {
            Victim::Index(i) => i,
            Victim::Observed => {
                seen.unwrap_or_else(|| panic!("the trigger observed no server\n{report}"))
            }
            Victim::Output(kind) => {
                let (host, region) = output_host(self.cluster, kind)
                    .unwrap_or_else(|| panic!("no {kind:?} output is placed\n{report}"));
                assert!(
                    self.cluster.servers[host].region_online(region),
                    "the {kind:?} output {region} is not online at its host\n{report}"
                );
                host
            }
        }
    }
}

impl FaultPlan {
    /// Step `i`'s offset, if it is an `At` step.
    fn offset(&self, i: usize) -> SimDuration {
        match self.steps[i].0 {
            Trigger::At(offset) => offset,
            _ => NEVER,
        }
    }
}

/// The first region in key order that an applied change of `kind` output
/// (the journal's `{kind}.applied` records name them), with the index of
/// the server the map places it on.
fn output_host(cluster: &Cluster, kind: ChangeKind) -> Option<(usize, RegionId)> {
    let applied = format!("{}.applied", kind.name());
    let names = kind.pick(&["bottom", "top"][..], &["merged"], &["moved"]);
    let outputs: Vec<RegionId> = cluster
        .events
        .entries()
        .iter()
        .filter(|e| e.kind == applied)
        .flat_map(|e| names.iter().map(move |n| e.field(n)))
        .filter_map(|field| match field {
            Some(&Value::Id("r", n)) => Some(RegionId(n)),
            _ => None,
        })
        .collect();
    let map = cluster.master.snapshot_map();
    let (region, server) = map
        .regions()
        .iter()
        .filter(|d| outputs.contains(&d.id))
        .find_map(|d| Some((d.id, map.server_for(d.id)?)))?;
    let host = cluster.servers.iter().position(|s| s.id() == server)?;
    Some((host, region))
}

/// Rolls the lottery's die and picks what it does, drawing exactly what
/// the lottery always drew: the die, then a victim if one is taken.
fn roll(cluster: &Cluster, max_servers_down: usize, min_live_clients: usize) -> Option<Action> {
    let live_servers: Vec<usize> = (0..cluster.servers.len())
        .filter(|i| cluster.servers[*i].is_alive())
        .collect();
    let servers_down = cluster.servers.len() - live_servers.len();
    let rm_down = !cluster.rm.is_alive();
    let pick = |live: &[usize]| live[cluster.sim.gen_range(0, live.len() as u64) as usize];
    match cluster.sim.gen_range(0, 100) {
        0..=3 if servers_down < max_servers_down => {
            // Always keep one server.
            (live_servers.len() > 1)
                .then(|| Action::CrashServer(Victim::Index(pick(&live_servers))))
        }
        4..=6 => {
            let live: Vec<usize> = (0..cluster.clients.len())
                .filter(|i| cluster.clients[*i].is_alive())
                .collect();
            (live.len() > min_live_clients).then(|| Action::CrashClient(pick(&live)))
        }
        7..=8 if !rm_down => Some(Action::CrashRecoveryManager),
        9..=11 if rm_down => Some(Action::RestartRecoveryManager),
        _ => None,
    }
}
