//! Fault plans as values: every failure a suite injects is one step of
//! a [`FaultPlan`], a `Debug`-printable list of `(Trigger, Action)`
//! pairs, and [`FaultPlan::run`] is the one loop that drives a cluster
//! through it.
//!
//! A run is rounds of load ([`Drive`]). Each round applies the steps due
//! at its start, fires the load, advances one tick from where the load
//! left the clock (stopping wherever a step is due inside it, up to and
//! including its end), then runs the round's check. What fired comes
//! back as a [`Report`]: each step's offset from the run's start and the
//! action it applied, its victim resolved to an index. It prints with
//! the plan and the seed — in the message of an unfired step's
//! assertion, and on stderr when a test fails while holding it — so a
//! failed run is explained by its own artifacts.
//!
//! The runner draws no randomness. The chaos lottery is drawn up front,
//! from a generator of its own, into `At` steps ([`Lottery`]), so every
//! plan is a pure, printable value. A plan whose schedule fails shrinks
//! to the few steps the failure needs ([`FaultPlan::shrink`]), printed
//! as a literal to paste into a test ([`FaultPlan::literal`]);
//! [`run_or_shrink`] does both when a schedule panics.

use cumulo_core::Cluster;
use cumulo_sim::trace::Value;
use cumulo_sim::{NodeId, SimDuration, SimTime};
use cumulo_store::{ChangeKind, RegionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The offset of a step that is never due by time.
const NEVER: SimDuration = SimDuration::from_nanos(u64::MAX);

/// When a step fires. Each step fires once.
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
    /// Restart the recovery manager process. A live manager is left as
    /// it is: only a shrunk plan, which lost the step's crash, asks.
    RestartRecoveryManager,
    /// No fault: the step only records when its trigger fired.
    Note,
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

    /// Runs `check(cluster, round)` as each round ends, after the steps
    /// due at its end.
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
/// start and the action it applied (a crash's victim as an index).
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
    /// Whether step `step` fired.
    pub fn fired(&self, step: usize) -> bool {
        self.fired.iter().any(|f| f.step == step)
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
        }
        // Steps due after the last round fire at its end.
        run.fire_due(NEVER);
        for i in 0..self.steps.len() {
            if matches!(self.steps[i].0, Trigger::End) {
                run.apply(i, None);
            }
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
    /// Whether each step has fired.
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
                Trigger::End => NEVER,
            })
            .filter(|&t| t > self.offset())
            .fold(end, SimDuration::min)
    }

    /// Applies step `step`'s action and reports it, a crash's victim
    /// resolved to an index; `seen` is the server its state was seen on.
    fn apply(&mut self, step: usize, seen: Option<usize>) {
        self.done[step] = true;
        let cluster = self.cluster;
        let mut action = self.plan.steps[step].1;
        match action {
            Action::CrashServer(victim) => {
                let i = self.victim(victim, seen);
                cluster.crash_server(i);
                action = Action::CrashServer(Victim::Index(i));
            }
            Action::CrashClient(i) => cluster.crash_client(i),
            Action::IsolateServer(i) => cluster.net.isolate(cluster.servers[i].node()),
            Action::HealAll => cluster.net.heal_all(),
            Action::Partition(a, b) => cluster.net.partition(a, b),
            Action::Heal(a, b) => cluster.net.heal(a, b),
            Action::CrashRecoveryManager => cluster.crash_recovery_manager(),
            Action::RestartRecoveryManager if cluster.rm.is_alive() => return,
            Action::RestartRecoveryManager => cluster.restart_recovery_manager(),
            Action::Note => {}
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

/// The chaos lottery, drawn up front from a generator of its own. Each
/// round it rolls one `[0, 100)` die that may crash a live server (never
/// more than two down, always one up), crash a live client (only while
/// more than two live), or crash or restart the recovery manager. It
/// keeps its own account of what its steps took down, so the plans it
/// draws are lists of `At` steps that never read the cluster, and the
/// plans of a run's successive phases follow on from each other.
pub struct Lottery {
    rng: StdRng,
    /// The servers and clients still up, in index order.
    servers: Vec<usize>,
    clients: Vec<usize>,
    servers_down: usize,
    rm_down: bool,
}

impl Lottery {
    /// A lottery over `servers` servers and `clients` clients, all up.
    pub fn new(seed: u64, servers: usize, clients: usize) -> Self {
        Lottery {
            rng: StdRng::seed_from_u64(seed),
            servers: (0..servers).collect(),
            clients: (0..clients).collect(),
            servers_down: 0,
            rm_down: false,
        }
    }

    /// The plan for `rounds` rounds of `tick`: a round's draw fires at
    /// the round's end. A recovery manager the plan leaves down restarts
    /// at the plan's end, so the run's convergence can drain.
    pub fn plan(&mut self, rounds: u64, tick: SimDuration) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for round in 1..=rounds {
            if let Some(action) = self.draw() {
                plan = plan.at(tick * round, action);
            }
        }
        if self.rm_down {
            self.rm_down = false;
            plan = plan.at(tick * rounds, Action::RestartRecoveryManager);
        }
        plan
    }

    /// One round's die, and a victim if it takes one.
    fn draw(&mut self) -> Option<Action> {
        let pick = |rng: &mut StdRng, up: &mut Vec<usize>| up.remove(rng.gen_range(0..up.len()));
        Some(match self.rng.gen_range(0..100u32) {
            0..=3 if self.servers_down < 2 && self.servers.len() > 1 => {
                self.servers_down += 1;
                Action::CrashServer(Victim::Index(pick(&mut self.rng, &mut self.servers)))
            }
            4..=6 if self.clients.len() > 2 => {
                Action::CrashClient(pick(&mut self.rng, &mut self.clients))
            }
            7..=8 if !self.rm_down => {
                self.rm_down = true;
                Action::CrashRecoveryManager
            }
            9..=11 if self.rm_down => {
                self.rm_down = false;
                Action::RestartRecoveryManager
            }
            _ => return None,
        })
    }
}

/// What [`FaultPlan::shrink`] found, and what it took.
pub struct Shrunk {
    /// A failing plan none of whose steps can go alone.
    pub plan: FaultPlan,
    /// Schedules run, each on a cluster of its own.
    pub runs: u32,
    /// Candidates that lost the failure: removals after which `fails`
    /// no longer held.
    pub lost: u32,
}

impl FaultPlan {
    /// Greedy delta debugging over the steps: each pass tries dropping
    /// every step in turn and keeps each drop after which `fails` still
    /// holds, until a pass drops nothing, so the plan it returns is
    /// 1-minimal. `fails` runs the whole schedule, building its cluster
    /// afresh; it should hold of `self`.
    pub fn shrink(&self, mut fails: impl FnMut(&FaultPlan) -> bool) -> Shrunk {
        let mut shrunk = Shrunk {
            plan: self.clone(),
            runs: 0,
            lost: 0,
        };
        loop {
            let before = shrunk.plan.steps.len();
            let mut i = 0;
            while i < shrunk.plan.steps.len() {
                let mut candidate = shrunk.plan.clone();
                candidate.steps.remove(i);
                shrunk.runs += 1;
                if fails(&candidate) {
                    shrunk.plan = candidate;
                } else {
                    shrunk.lost += 1;
                    i += 1;
                }
            }
            if shrunk.plan.steps.len() == before {
                return shrunk;
            }
        }
    }

    /// The plan as builder code, one step a line, to paste into a test:
    /// `FaultPlan::new().at(SimDuration::from_nanos(..), Action::..)`.
    /// The plans that shrink hold `At` steps; any other trigger, and a
    /// partition's nodes, print as their `Debug`.
    pub fn literal(&self) -> String {
        let mut code = String::from("FaultPlan::new()");
        for (trigger, action) in &self.steps {
            let action = match action {
                Action::CrashServer(victim) => format!("Action::CrashServer(Victim::{victim:?})"),
                action => format!("Action::{action:?}"),
            };
            code += &match trigger {
                Trigger::At(offset) => {
                    format!(
                        "\n    .at(SimDuration::from_nanos({}), {action})",
                        offset.nanos()
                    )
                }
                trigger => format!("\n    .step(Trigger::{trigger:?}, {action})"),
            };
        }
        code
    }
}

/// Runs `schedule(plan)` and returns what it returns. If it panics, the
/// plan shrinks against it ([`FaultPlan::shrink`]: a candidate fails if
/// its run panics with the same first line, so a shrink never trades
/// the failure for another, such as the hang of a dropped restart), and
/// this panics again with the first run's message, `label` (the seed,
/// and a shift if there is one) and the 1-minimal plan's literal.
pub fn run_or_shrink<T>(label: &str, plan: &FaultPlan, schedule: impl Fn(&FaultPlan) -> T) -> T {
    let run = |plan: &FaultPlan| {
        catch_unwind(AssertUnwindSafe(|| schedule(plan))).map_err(|payload| {
            match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
            }
        })
    };
    let message = match run(plan) {
        Ok(value) => return value,
        Err(message) => message,
    };
    let failure = message.lines().next();
    let shrunk =
        plan.shrink(|candidate| run(candidate).is_err_and(|other| other.lines().next() == failure));
    panic!(
        "{message}\n{label}: the plan of {} steps shrank in {} runs ({} candidates lost the failure) to:\n{}",
        plan.steps.len(),
        shrunk.runs,
        shrunk.lost,
        shrunk.plan.literal()
    );
}
