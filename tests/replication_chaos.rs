//! Replication chaos suite: primary/backup region replication under the
//! failure modes the tentpole names — primary crash mid-split, a
//! partition (not a crash) of the primary mid-commit with stale-primary
//! fencing, and the all-replicas-dead replay fallback — audited with
//! bank-balance conservation under RNG-shifted seeds.
//!
//! Every schedule is deterministic in the seed; the RNG-shift variants
//! draw a few extra values up front so the same logical schedule runs
//! under perturbed event timings. Beside its outcomes each test pins
//! [`replication_digest`] of every run it makes: when each lane shipped,
//! dropped, re-synced and fenced, and how often.

mod common;

use common::bank::{account, run_until, shift_rng, Bank};
use common::{crash_first_observed, replication_digest, ChaosAction, ChaosSchedule};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;
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

fn audit_balances(cluster: &Cluster, label: &str) {
    assert_eq!(
        BANK.total(cluster),
        ACCOUNTS as i64 * INITIAL,
        "{label}: money not conserved"
    );
}

/// Crash a primary under transfer load: the master must promote a
/// backup (not fall back to a WAL replay), the cluster must converge,
/// and no acknowledged transfer may be lost. Run under three RNG shifts.
#[test]
fn primary_crash_promotes_backup_and_conserves_balances() {
    let mut digests = Vec::new();
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8101));
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Crash server 0 after 21 rounds of load.
        ChaosSchedule::new()
            .at(TICK * 21, ChaosAction::CrashServer(0))
            .run_rounds(&cluster, 40, TICK, |cluster, _| {
                BANK.transfer_round(cluster, &committed)
            });
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
        audit_balances(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
    }
    assert_eq!(
        digests,
        [
            10_600_815_373_260_093_831,
            17_761_706_867_330_210_869,
            17_266_071_314_461_873_275
        ],
        "replication digest per run"
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
    for shift in [0u32, 1] {
        let cluster = Cluster::build(three_copies(8101));
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        ChaosSchedule::new().run_rounds(&cluster, 40, TICK, |cluster, _| {
            BANK.transfer_round(cluster, &committed)
        });
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
        audit_balances(&cluster, &format!("healthy, shift {shift}"));
        digests.push(replication_digest(&cluster));

        let cluster = Cluster::build(three_copies(8101));
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        ChaosSchedule::new()
            .at(TICK * 21, ChaosAction::CrashServer(0))
            .run_rounds(&cluster, 40, TICK, |cluster, _| {
                BANK.transfer_round(cluster, &committed)
            });
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
        audit_balances(&cluster, &format!("crash, shift {shift}"));
        digests.push(replication_digest(&cluster));
    }
    assert_eq!(
        digests,
        [
            281_612_163_055_868_446,
            5_321_163_304_921_376_670,
            14_353_321_876_536_749_347,
            1_218_873_349_469_030_602
        ],
        "replication digest per run"
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
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8202));
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Mid-commit: the isolation lands while transfers are still in
        // flight toward the servers; the heal comes six seconds later.
        ChaosSchedule::new()
            .at(TICK * 20, ChaosAction::IsolateServer(0))
            .at(TICK * 36, ChaosAction::HealAll)
            .run_rounds(&cluster, 50, TICK, |cluster, _| {
                BANK.transfer_round(cluster, &committed)
            });
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
        audit_balances(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
    }
    assert_eq!(
        digests,
        [
            15_814_752_995_506_055_332,
            1_244_631_672_439_703_849,
            7_843_418_059_929_619_064
        ],
        "replication digest per run"
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
    let committed = Rc::new(Cell::new(0u32));
    let load = |cluster: &Cluster, _| BANK.transfer_round(cluster, &committed);
    ChaosSchedule::new().run_rounds(&cluster, 20, TICK, load);
    // Isolate server 0 the moment it has shipped something unacked.
    BANK.transfer_round(&cluster, &committed);
    let backlog = cluster.servers[0].replication_stats().backlog_bytes.clone();
    let step = SimDuration::from_micros(100);
    assert!(
        run_until(&cluster, step, TICK, || backlog.get() > 0),
        "server 0 shipped nothing this round; pick another seed"
    );
    ChaosSchedule::new()
        .at(SimDuration::ZERO, ChaosAction::IsolateServer(0))
        .at(TICK * 16, ChaosAction::HealAll)
        .run_rounds(&cluster, 30, TICK, load);
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
    audit_balances(&cluster, "fenced, quiet");
    assert_eq!(
        replication_digest(&cluster),
        763_765_515_386_028_823,
        "replication digest"
    );
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
    ChaosSchedule::new()
        .at(TICK * 5, ChaosAction::CrashServer(0))
        .run_rounds(&cluster, 20, TICK, |cluster, _| {
            BANK.transfer_round(cluster, &committed)
        });
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
    audit_balances(&cluster, "lost first sync");
    assert_eq!(
        replication_digest(&cluster),
        8_219_882_369_730_080_884,
        "replication digest"
    );
}

/// Crash the primary *and* every backup of its regions: no eligible
/// replica survives, so the master must fall back to the full WAL-replay
/// path — and even then conserve every acknowledged transfer.
#[test]
fn all_replicas_dead_falls_back_to_replay() {
    let mut digests = Vec::new();
    for shift in [0u32, 1, 2] {
        let cluster = Cluster::build(replicated_config(8303));
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // With 3 servers and rf=2, killing two servers in the same
        // instant leaves regions whose primary and only backup are both
        // dead.
        ChaosSchedule::new()
            .at(TICK * 21, ChaosAction::CrashServer(0))
            .at(TICK * 21, ChaosAction::CrashServer(1))
            .run_rounds(&cluster, 45, TICK, |cluster, _| {
                BANK.transfer_round(cluster, &committed)
            });
        cluster.run_for(SimDuration::from_secs(30));
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
        audit_balances(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
    }
    assert_eq!(
        digests,
        [
            9_209_561_919_522_818_501,
            320_023_914_112_106_167,
            9_727_521_975_369_079_263
        ],
        "replication digest per run"
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
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        let mut crashed = false;
        for round in 0..60 {
            BANK.transfer_round(&cluster, &committed);
            fire_pads(&cluster, round);
            for _ in 0..20 {
                cluster.run_for(SimDuration::from_millis(20));
                // Crash the first server observed with a split in
                // flight (after enough rounds that data exists).
                if !crashed && round > 10 {
                    crashed = crash_first_observed(&cluster, |s, _| {
                        s.pending_change() == Some(ChangeKind::Split)
                    });
                }
            }
        }
        cluster.run_for(SimDuration::from_secs(30));
        assert!(
            crashed,
            "shift {shift}: no split was ever in flight; tune the thresholds"
        );
        assert!(
            cluster.all_regions_online(),
            "shift {shift}: regions failed to converge after the mid-split crash"
        );
        assert!(
            cluster.master.promotions() + cluster.master.fallback_replays() > 0,
            "shift {shift}: the crash recovered no region at all"
        );
        audit_balances(&cluster, &format!("shift {shift}"));
        digests.push(replication_digest(&cluster));
    }
    assert_eq!(
        digests,
        [15_367_487_994_854_862_878, 13_438_246_764_638_354_729],
        "replication digest per run"
    );
}
