//! Replication chaos suite: primary/backup region replication under the
//! failure modes the tentpole names — primary crash mid-split, a
//! partition (not a crash) of the primary mid-commit with stale-primary
//! fencing, and the all-replicas-dead replay fallback — audited with
//! the history checker, a read-back of every written cell and
//! bank-balance conservation under RNG-shifted seeds.
//!
//! Every schedule is deterministic in the seed; the RNG-shift variants
//! draw a few extra values up front so the same logical schedule runs
//! under perturbed event timings. Beside its outcomes each test pins
//! [`replication_digest`] of every run it makes: when each lane shipped,
//! dropped, re-synced and fenced, and how often. The digests cover the
//! run up to the balance total; the history audit reads back every
//! written cell after them, so its reads leave them as they were.

mod common;

use common::bank::{account, run_until, shift_rng, Bank};
use common::plan::{Action, Drive, FaultPlan, State, Victim};
use common::{audit, key, replication_digest, replication_lines_digest, run_txn};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

/// Every schedule below ticks the cluster in rounds of this length.
const TICK: SimDuration = SimDuration::from_millis(400);

const ACCOUNTS: u64 = 120;
const INITIAL: i64 = 500;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// The transfer load every schedule below fires each round.
fn load(committed: &Rc<Cell<u32>>) -> impl FnMut(&Cluster, u64) + '_ {
    |cluster, _| BANK.transfer_round(cluster, committed)
}

fn replicated_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: ACCOUNTS,
        region_replication: 2,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    }
}

/// Crash a primary under transfer load: the master must promote a
/// backup (not fall back to a WAL replay), the cluster must converge,
/// and no acknowledged transfer may be lost. Run under three RNG shifts.
#[test]
fn primary_crash_promotes_backup_and_conserves_balances() {
    let mut digests = Vec::new();
    let mut lines = Vec::new();
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8101));
        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Crash server 0 after 21 rounds of load.
        FaultPlan::new()
            .at(TICK * 21, Action::CrashServer(Victim::Index(0)))
            .run(&cluster, Drive::rounds(40, TICK).load(load(&committed)));
        cluster.run_for(SimDuration::from_secs(25));
        assert!(
            cluster.all_regions_online(),
            "shift {shift}: regions failed to converge"
        );
        assert!(
            committed.get() > 50,
            "shift {shift}: too few transfers committed ({})",
            committed.get()
        );
        assert!(
            cluster.master.promotions() > 0,
            "shift {shift}: primary crash should promote at least one replica \
             (promotions=0, fallbacks={})",
            cluster.master.fallback_replays()
        );
        BANK.assert_conserved(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);
    }
    assert_eq!(
        digests,
        [
            8_093_084_702_909_526_762,
            4_012_086_932_484_755_473,
            15_233_610_972_886_219_495
        ],
        "replication digest per run"
    );
    assert_eq!(
        lines,
        [
            7_559_969_977_251_083_018,
            10_636_630_080_086_057_024,
            18_195_644_458_171_210_574
        ],
        "replication lines per run"
    );
}

/// Three copies of every region, so every primary ships down two lanes.
/// A lane is one stream to one shadow and numbers its elements itself:
/// when syncs and split intents drew one number *per lane* out of a
/// per-region counter that write-sets drew one number from for *all*
/// lanes, every sync left each lane a gap, and the lanes spent the run
/// nacked, dropped and re-synced. A healthy run must end without a nack
/// or a dropped lane; a primary crash must still promote a backup and
/// lose no acknowledged transfer.
#[test]
fn two_backup_lanes_stay_in_sync_and_promote() {
    let three_copies = |seed| ClusterConfig {
        servers: 4,
        region_replication: 3,
        ..replicated_config(seed)
    };
    let mut digests = Vec::new();
    let mut lines = Vec::new();
    for shift in [0u32, 1] {
        let cluster = Cluster::build(three_copies(8101));
        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        FaultPlan::new().run(&cluster, Drive::rounds(40, TICK).load(load(&committed)));
        cluster.run_for(SimDuration::from_secs(5));
        assert!(committed.get() > 50, "shift {shift}: too few transfers");
        for server in &cluster.servers {
            let stats = server.replication_stats();
            assert_eq!(
                (stats.nacks.get(), stats.lane_drops.get()),
                (0, 0),
                "shift {shift}: {} nacked or dropped a lane in a healthy run",
                server.id()
            );
            assert!(stats.ships.get() > 0, "shift {shift}: nothing shipped");
        }
        BANK.assert_conserved(&cluster, &format!("healthy, shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);

        let cluster = Cluster::build(three_copies(8101));

        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        FaultPlan::new()
            .at(TICK * 21, Action::CrashServer(Victim::Index(0)))
            .run(&cluster, Drive::rounds(40, TICK).load(load(&committed)));
        cluster.run_for(SimDuration::from_secs(25));
        assert!(
            cluster.all_regions_online(),
            "shift {shift}: regions failed to converge"
        );
        assert!(
            cluster.master.promotions() > 0,
            "shift {shift}: the crash should promote a replica (fallbacks={})",
            cluster.master.fallback_replays()
        );
        BANK.assert_conserved(&cluster, &format!("crash, shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);
    }
    assert_eq!(
        digests,
        [
            281_612_163_055_868_446,
            2_211_822_390_510_139_842,
            14_353_321_876_536_749_347,
            1_178_915_210_052_785_477
        ],
        "replication digest per run"
    );
    assert_eq!(
        lines,
        [
            1_239_224_100_539_922_333,
            457_100_027_732_158_748,
            18_157_297_853_710_838_773,
            4_155_194_479_700_013_543
        ],
        "replication lines per run"
    );
}

/// Partition (do not crash) a primary mid-commit: its session expires
/// and a backup is promoted behind the partition. The stale primary must
/// fence itself once the partition heals — its in-flight commit acks
/// fail with the `WrongRegion` refresh path rather than succeeding — it
/// must then serve as the backup the master made it, and no acknowledged
/// transfer may be lost.
#[test]
fn partitioned_primary_is_fenced_after_promotion() {
    let mut digests = Vec::new();
    let mut lines = Vec::new();
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8202));
        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Mid-commit: the isolation lands while transfers are still in
        // flight toward the servers; the heal comes six seconds later.
        FaultPlan::new()
            .at(TICK * 20, Action::IsolateServer(0))
            .at(TICK * 36, Action::HealAll)
            .run(&cluster, Drive::rounds(50, TICK).load(load(&committed)));
        cluster.run_for(SimDuration::from_secs(25));
        assert!(
            cluster.master.failover_count() >= 1,
            "shift {shift}: partition must look like a crash to the master"
        );
        assert!(
            cluster.master.promotions() > 0,
            "shift {shift}: promotion should win behind the partition \
             (promotions=0, fallbacks={})",
            cluster.master.fallback_replays()
        );
        // The stale primary is still alive behind the healed partition;
        // it must have fenced itself out of its old regions.
        assert!(
            cluster.servers[0].is_alive(),
            "shift {shift}: the partitioned server was never crashed"
        );
        assert!(
            cluster.servers[0].replication_stats().fenced.get() > 0,
            "shift {shift}: stale primary never fenced itself"
        );
        // The master has since made it a backup of those regions, and it
        // still holds their state as a fenced ex-primary: the syncs the
        // rightful primaries send it must not fence *them*.
        for rightful in &cluster.servers[1..] {
            assert_eq!(
                rightful.replication_stats().fenced.get(),
                0,
                "shift {shift}: {} was fenced by the ex-primary it replicates to",
                rightful.id()
            );
        }
        BANK.assert_conserved(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);
    }
    assert_eq!(
        digests,
        [
            4_844_700_908_158_084_315,
            17_373_099_639_829_014_824,
            9_372_214_734_195_320_506
        ],
        "replication digest per run"
    );
    assert_eq!(
        lines,
        [
            1_647_608_262_830_625_026,
            12_805_288_988_195_251_579,
            560_144_971_103_957_536
        ],
        "replication lines per run"
    );
}

/// The same partition, landed while the primary has a write-set on its
/// way to a backup, and watched past the fence. The lost ack times out
/// behind the partition, so a lane report is pending — re-sent every
/// 400 ms into the void — when the heal lets one through; the master
/// answers "stale" and the group fences. That must end the reporting: a
/// fenced group has nothing left to un-gate, and the master said so.
/// Every report the master receives under a superseded epoch is
/// journalled as `replication.stale_report`, so once the fence has
/// settled the count must stand still.
#[test]
fn fenced_primary_stops_reporting_its_lanes() {
    let cluster = Cluster::build(replicated_config(8202));
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    FaultPlan::new().run(&cluster, Drive::rounds(20, TICK).load(load(&committed)));
    // Isolate server 0 the moment it has shipped something unacked.
    BANK.transfer_round(&cluster, &committed);
    let backlog = cluster.servers[0].replication_stats().backlog_bytes.clone();
    let step = SimDuration::from_micros(100);
    assert!(
        run_until(&cluster, step, TICK, || backlog.get() > 0),
        "server 0 shipped nothing this round; pick another seed"
    );
    FaultPlan::new()
        .at(SimDuration::ZERO, Action::IsolateServer(0))
        .at(TICK * 16, Action::HealAll)
        .run(&cluster, Drive::rounds(30, TICK).load(load(&committed)));
    cluster.run_for(SimDuration::from_secs(5));
    assert!(
        cluster.servers[0].replication_stats().fenced.get() > 0,
        "the stale primary never fenced itself"
    );
    let reports = cluster.events.count("replication.stale_report");
    assert!(reports > 0, "no lane report was pending across the fence");
    cluster.run_for(SimDuration::from_secs(10));
    assert_eq!(
        cluster.events.count("replication.stale_report"),
        reports,
        "a fenced group kept re-sending its lane reports to the master"
    );
    BANK.assert_conserved(&cluster, "fenced, quiet");
    assert_eq!(
        replication_digest(&cluster),
        13_434_265_130_704_591_811,
        "replication digest"
    );
    assert_eq!(
        replication_lines_digest(&cluster),
        16_134_166_104_475_273_355,
        "replication lines"
    );
    audit(&cluster, &history);
}

/// A full-state sync lost on an *out-of-sync* lane must be retried. The
/// first re-sync tick ships every lane its first sync; a short cut
/// between servers 0 and 1 swallows the ones between them. Nothing gates
/// on such a lane and the master holds its backup ineligible anyway, so
/// losing the sync is safe — but a primary that went on waiting for the
/// lost sync's ack and shipped no other left the lane out until the next
/// re-establish: no replica, and a crash of either server a replay. The
/// ack timeout must give the lane back to the re-sync tick: every lane is
/// in within two re-sync intervals of the heal, and the crash of server 0
/// is then a promotion.
#[test]
fn a_sync_lost_on_an_out_of_sync_lane_is_retried() {
    // The server's re-sync period (`RESYNC_INTERVAL`).
    let resync_interval = SimDuration::from_secs(2);
    let cluster = Cluster::build(replicated_config(8505));
    let history = cluster.attach_history();
    let node = |i: usize| cluster.servers[i].node();
    let resynced = || cluster.events.count("replication.lane_resynced");
    let lanes = 6; // one backup for each of six regions
    let shipped = run_until(
        &cluster,
        SimDuration::from_micros(10),
        resync_interval * 2,
        || cluster.events.count("replication.sync") > 0,
    );
    assert!(shipped, "no lane was shipped a first sync");
    cluster.net.partition(node(0), node(1));
    cluster.run_for(SimDuration::from_millis(100));
    cluster.net.heal(node(0), node(1));
    assert!(
        (1..lanes).contains(&resynced()),
        "the cut should lose the syncs between servers 0 and 1 and no others \
         ({} of {lanes} lanes came in)",
        resynced()
    );
    cluster.run_for(resync_interval * 2);
    assert_eq!(
        resynced(),
        lanes,
        "a lane whose first sync was lost is still out two re-sync intervals after the heal"
    );

    let committed = Rc::new(Cell::new(0u32));
    FaultPlan::new()
        .at(TICK * 5, Action::CrashServer(Victim::Index(0)))
        .run(&cluster, Drive::rounds(20, TICK).load(load(&committed)));
    cluster.run_for(SimDuration::from_secs(25));
    assert!(cluster.all_regions_online(), "regions failed to converge");
    assert!(committed.get() > 50, "too few transfers committed");
    assert_eq!(
        (
            cluster.master.promotions() > 0,
            cluster.master.fallback_replays()
        ),
        (true, 0),
        "every region of server 0 had a replica to promote"
    );
    BANK.assert_conserved(&cluster, "lost first sync");
    assert_eq!(
        replication_digest(&cluster),
        9_701_401_140_004_272_833,
        "replication digest"
    );
    assert_eq!(
        replication_lines_digest(&cluster),
        7_839_856_853_852_428_789,
        "replication lines"
    );
    audit(&cluster, &history);
}

/// Crash the primary *and* every backup of its regions: no eligible
/// replica survives, so the master must fall back to the full WAL-replay
/// path — and even then conserve every acknowledged transfer.
#[test]
fn all_replicas_dead_falls_back_to_replay() {
    let mut digests = Vec::new();
    let mut lines = Vec::new();
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8303));
        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // With 3 servers and rf=2, killing two servers in the same
        // instant leaves regions whose primary and only backup are both
        // dead.
        FaultPlan::new()
            .at(TICK * 21, Action::CrashServer(Victim::Index(0)))
            .at(TICK * 21, Action::CrashServer(Victim::Index(1)))
            .run(&cluster, Drive::rounds(45, TICK).load(load(&committed)));
        cluster.run_for(SimDuration::from_secs(10));
        // The survivor's groups lost their only backup and nothing can
        // replace it, so they are dissolved: nothing ships while idle.
        let idle_from = cluster.now();
        cluster.run_for(SimDuration::from_secs(20));
        let entries = cluster.events.entries();
        let idle_syncs = entries
            .iter()
            .filter(|e| e.time >= idle_from && e.kind == "replication.sync")
            .count();
        assert_eq!(idle_syncs, 0, "shift {shift}: syncs shipped while idle");
        assert!(
            cluster.all_regions_online(),
            "shift {shift}: regions failed to converge on the survivor"
        );
        assert!(
            cluster.master.fallback_replays() > 0,
            "shift {shift}: a double crash must force at least one replay fallback \
             (promotions={})",
            cluster.master.promotions()
        );
        BANK.assert_conserved(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);
    }
    assert_eq!(
        digests,
        [
            1_262_089_467_392_366_575,
            4_367_976_934_441_599_206,
            13_079_625_285_549_433_274
        ],
        "replication digest per run"
    );
    assert_eq!(
        lines,
        [
            1_797_610_066_469_774_679,
            4_755_836_338_620_578_850,
            15_018_106_376_489_257_261
        ],
        "replication lines per run"
    );
}

/// Bulky writes into a separate `pad` column (the splits suite's idiom):
/// they inflate store-file volume so regions cross the split threshold,
/// without touching the audited `bal` column.
fn fire_pads(cluster: &Cluster, round: u32) {
    let client = cluster
        .client(round as usize % cluster.clients.len())
        .clone();
    if !client.is_alive() {
        return;
    }
    let sim = cluster.sim.clone();
    client.begin(move |txn| {
        let Ok(txn) = txn else { return };
        for k in 0..8 {
            let i = sim.gen_range(0, ACCOUNTS);
            let _ = txn.put(account(i), "pad", format!("r{round}k{k}{:_<512}", ""));
        }
        txn.commit(|_| {});
    });
}

/// Crash a primary while one of its regions is mid-split: the split
/// rolls back or completes, and either way promotion/recovery converges
/// without losing a transfer.
#[test]
fn primary_crash_mid_split_converges() {
    let mut digests = Vec::new();
    let mut lines = Vec::new();
    for shift in [0u32, 1] {
        let mut cfg = replicated_config(8404);
        cfg.server_cfg.split.enabled = true;
        // Split threshold low enough that the padded transfer traffic
        // splits hot regions during the run.
        cfg.server_cfg.split.threshold_bytes = 16 << 10;
        cfg.server_cfg.memstore_flush_bytes = 6 << 10;
        cfg.server_cfg.flush_check_interval = SimDuration::from_millis(400);
        cfg.server_cfg.split.check_interval = SimDuration::from_millis(300);
        let cluster = Cluster::build(cfg);
        let history = cluster.attach_history();
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Crash the first server observed with a split in flight (after
        // enough rounds that data exists).
        const STEP: SimDuration = SimDuration::from_millis(20);
        let crash = Action::CrashServer(Victim::Observed);
        let report = FaultPlan::new()
            .when(State::SplitPending, TICK * 11 + STEP, STEP, crash)
            .run(
                &cluster,
                Drive::rounds(60, TICK).load(|cluster, round| {
                    BANK.transfer_round(cluster, &committed);
                    fire_pads(cluster, round as u32);
                }),
            );
        cluster.run_for(SimDuration::from_secs(30));
        report.assert_fired(
            0,
            &format!("shift {shift}: no split was ever in flight; tune the thresholds"),
        );
        assert!(
            cluster.all_regions_online(),
            "shift {shift}: regions failed to converge after the mid-split crash"
        );
        assert!(
            cluster.master.promotions() + cluster.master.fallback_replays() > 0,
            "shift {shift}: the crash recovered no region at all"
        );
        BANK.assert_conserved(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
        lines.push(replication_lines_digest(&cluster));
        audit(&cluster, &history);
    }
    assert_eq!(
        digests,
        [8_380_336_722_451_214_384, 9_518_779_565_315_453_213],
        "replication digest per run"
    );
    assert_eq!(
        lines,
        [2_002_597_252_397_405_140, 17_188_269_531_971_313_661],
        "replication lines per run"
    );
}

/// Bulk-loaded rows are part of what a primary persisted, so a promoted
/// backup serves them: the loaded file joins its region through the
/// door a flush's file takes, which re-syncs every lane, so each shadow
/// knows the file before its primary fails. No write follows the load
/// far enough to flush, so no later sync could teach a shadow the file.
#[test]
fn loaded_rows_survive_a_promotion() {
    const ROWS: u64 = 600;
    let cluster = Cluster::build(ClusterConfig {
        key_count: ROWS,
        ..replicated_config(8505)
    });
    let history = cluster.attach_history();
    // Every lane in sync before the load, so no re-sync tick carries it.
    cluster.run_for(SimDuration::from_secs(3));
    cluster.load_rows(ROWS, &["f0"], 8, false);
    cluster.run_for(SimDuration::from_secs(5));
    // A few commits beside the loaded column, for the history to audit.
    for i in 0..12 {
        run_txn(&cluster, i as usize % 6, &[(i * 50, "f1", "written")]);
    }
    let promoted = cluster.servers[0].hosted_regions();
    assert!(!promoted.is_empty(), "rs0 hosts no region");
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(30));
    assert!(cluster.all_regions_online(), "regions failed to converge");
    let entries = cluster.events.entries();
    let promoted_any = entries.iter().any(|e| e.kind == "replication.promote");
    assert!(promoted_any, "the crash promoted no backup");
    assert_eq!(
        cluster.master.fallback_replays(),
        0,
        "master.repl.fallback_replays: a region fell back to a replay"
    );
    let digests = (
        replication_digest(&cluster),
        replication_lines_digest(&cluster),
    );
    assert_eq!(
        digests,
        (2_214_198_351_939_526_916, 11_303_052_136_115_820_036),
        "replication digest and lines"
    );
    // Only the loader writes `f0`, so its value is the version at 0.
    let map = cluster.master.snapshot_map();
    for desc in map.regions().iter().filter(|d| promoted.contains(&d.id)) {
        for row in (0..ROWS).filter(|&i| desc.contains(key(i).as_bytes())) {
            let got = cluster.read_cell(key(row), "f0", SimDuration::from_secs(10));
            assert_eq!(
                got.as_deref(),
                Some(&[0x61; 8][..]),
                "loaded row {row} of promoted region {}",
                desc.id
            );
        }
    }
    audit(&cluster, &history);
}
