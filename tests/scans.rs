//! Cross-region scan totality under structural chaos: a scan must
//! return exactly what an oracle full-keyspace read at the same
//! snapshot returns, while regions split, merge, and fail over under
//! the scan's continuation loop.
//!
//! Each schedule keeps an audit scan *continuously in flight*
//! (back-to-back read-only transactions on a dedicated client) while
//! the chaos runs, so every region-map change lands mid-scan by
//! construction. Every audit asserts, inside one transaction (one
//! `start_ts`, hence one snapshot):
//!
//! 1. the scan result is byte-equal to a `multi_get` oracle over every
//!    (account, column) cell in the key space,
//! 2. rows/columns are strictly increasing — no duplicate or
//!    out-of-order cells from a continuation retry, and
//! 3. bank balances conserve at the scan's snapshot.
//!
//! Each schedule runs under several RNG shifts so the same logical
//! chaos replays with perturbed timings.

mod common;

use common::bank::{account, run_until, shift_rng, Bank};
use common::{crash_for_adjacency, ChaosAction, ChaosSchedule};
use cumulo_core::{Cluster, ClusterConfig, Transaction, TransactionalClient};
use cumulo_sim::{Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const ACCOUNTS: u64 = 400;
const INITIAL: i64 = 1_000;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// One load round: every live client except the audit client (index 0)
/// fires a transfer.
fn round(cluster: &Cluster, committed: &Rc<Cell<u32>>) {
    for i in 1..cluster.clients.len() {
        let client = cluster.client(i).clone();
        if client.is_alive() {
            BANK.transfer(cluster, client, Rc::clone(committed));
        }
    }
}

/// Shared state of the continuous scan-vs-oracle audit loop.
struct AuditState {
    sim: Sim,
    /// Columns each account may carry, in byte order (the scan returns
    /// cells sorted by (row, col), so the oracle must enumerate the
    /// same order).
    cols: &'static [&'static str],
    /// Audits that completed and matched their oracle.
    ok: Cell<u64>,
    /// First divergence observed, if any.
    mismatch: RefCell<Option<String>>,
    /// Set to end the loop (the in-flight audit still completes).
    stop: Cell<bool>,
}

/// Runs one audit transaction, then re-arms itself, keeping a scan in
/// flight essentially at all times. Read-only: the transaction is
/// aborted after the comparison.
fn start_audit(client: TransactionalClient, audit: Rc<AuditState>) {
    if audit.stop.get() {
        return;
    }
    let limit = ACCOUNTS as usize * audit.cols.len() + 16;
    let client2 = client.clone();
    client.begin(move |txn| {
        let Ok(txn) = txn else {
            rearm(client2, audit);
            return;
        };
        let txn2 = txn.clone();
        let audit2 = audit;
        let client3 = client2.clone();
        txn.scan(account(0), None, limit, move |hits| {
            let Ok(hits) = hits else {
                rearm(client3, audit2);
                return;
            };
            // The oracle: every possible cell, read through multi_get in
            // the *same* transaction — same start_ts, same snapshot —
            // regardless of which servers end up serving either request.
            let mut cells = Vec::with_capacity(limit);
            for i in 0..ACCOUNTS {
                for c in audit2.cols {
                    cells.push((bytes::Bytes::from(account(i)), bytes::Bytes::from(*c)));
                }
            }
            let txn3 = txn2.clone();
            let audit3 = audit2.clone();
            let client4 = client3.clone();
            oracle_chunk(
                txn2,
                cells,
                0,
                Vec::new(),
                Box::new(move |oracle| match oracle {
                    None => rearm(client4, audit3),
                    Some(oracle) => {
                        check_audit(&audit3, &hits, &oracle);
                        txn3.abort();
                        audit3.ok.set(audit3.ok.get() + 1);
                        start_audit(client4, audit3);
                    }
                }),
            );
        });
    });
}

/// Oracle reads go out in bounded chunks: the store charges read
/// service per cell, so one giant multi_get batch would exceed the
/// client's request timeout forever. Chunks run sequentially inside the
/// same transaction — still one snapshot. `done` gets `None` if any
/// chunk fails terminally.
const ORACLE_CHUNK: usize = 32;

type OracleCells = Vec<(bytes::Bytes, bytes::Bytes, bytes::Bytes)>;

fn oracle_chunk(
    txn: Transaction,
    keys: Vec<(bytes::Bytes, bytes::Bytes)>,
    at: usize,
    mut acc: OracleCells,
    done: Box<dyn FnOnce(Option<OracleCells>)>,
) {
    if at >= keys.len() {
        done(Some(acc));
        return;
    }
    let hi = (at + ORACLE_CHUNK).min(keys.len());
    let chunk: Vec<_> = keys[at..hi].to_vec();
    let txn2 = txn.clone();
    txn.multi_get(chunk.clone(), move |vals| {
        let Ok(vals) = vals else {
            done(None);
            return;
        };
        acc.extend(
            chunk
                .into_iter()
                .zip(vals)
                .filter_map(|((r, c), v)| v.map(|v| (r, c, v))),
        );
        oracle_chunk(txn2, keys, hi, acc, done);
    });
}

/// Re-arms the audit loop after a transient begin/read error (e.g. the
/// audit raced a client-visible failover window) without counting an
/// audit as completed.
fn rearm(client: TransactionalClient, audit: Rc<AuditState>) {
    let sim = audit.sim.clone();
    sim.schedule_in(SimDuration::from_millis(20), move || {
        start_audit(client, audit);
    });
}

/// The three per-audit invariants: oracle equality, strict (row, col)
/// order, and balance conservation at the scan's snapshot.
fn check_audit(
    audit: &AuditState,
    hits: &[(bytes::Bytes, bytes::Bytes, bytes::Bytes)],
    oracle: &[(bytes::Bytes, bytes::Bytes, bytes::Bytes)],
) {
    let fail = |msg: String| {
        let mut slot = audit.mismatch.borrow_mut();
        if slot.is_none() {
            *slot = Some(msg);
        }
    };
    if hits != oracle {
        fail(format!(
            "audit {}: scan returned {} cells, oracle {} cells (or bytes differ)",
            audit.ok.get(),
            hits.len(),
            oracle.len()
        ));
        return;
    }
    for w in hits.windows(2) {
        if (&w[0].0, &w[0].1) >= (&w[1].0, &w[1].1) {
            fail(format!(
                "audit {}: duplicate/out-of-order cell {:?}",
                audit.ok.get(),
                w[1].0
            ));
            return;
        }
    }
    let mut seen = 0u64;
    let mut total = 0i64;
    for (_, c, v) in hits {
        if c.as_ref() == b"bal" {
            seen += 1;
            total += String::from_utf8_lossy(v).parse::<i64>().unwrap_or(0);
        }
    }
    total += (ACCOUNTS - seen) as i64 * INITIAL;
    if total != ACCOUNTS as i64 * INITIAL {
        fail(format!(
            "audit {}: snapshot lost money (total {total})",
            audit.ok.get()
        ));
    }
}

fn new_audit(cluster: &Cluster, cols: &'static [&'static str]) -> Rc<AuditState> {
    Rc::new(AuditState {
        sim: cluster.sim.clone(),
        cols,
        ok: Cell::new(0),
        mismatch: RefCell::new(None),
        stop: Cell::new(false),
    })
}

/// End-of-schedule checks shared by every test: the audit loop actually
/// ran and stayed clean, scans genuinely crossed regions, and the final
/// on-disk state conserves money.
fn final_audit(
    cluster: &Cluster,
    audit: &AuditState,
    label: &str,
    min_audits: u64,
    min_avg_legs: f64,
) {
    if let Some(m) = audit.mismatch.borrow().as_ref() {
        panic!("{label}: {m}");
    }
    assert!(
        audit.ok.get() >= min_audits,
        "{label}: only {} audits completed (want >= {min_audits})",
        audit.ok.get()
    );
    let sc = cluster.client(0).store_client();
    assert!(
        sc.scan_leg_rpcs() as f64 >= min_avg_legs * sc.scans_ok() as f64,
        "{label}: scans did not walk enough regions ({} legs / {} scans, want avg >= {min_avg_legs})",
        sc.scan_leg_rpcs(),
        sc.scans_ok()
    );
    assert!(
        cluster.all_regions_online(),
        "{label}: cluster did not fully recover"
    );
    cluster.assert_region_partition();
    assert_eq!(
        BANK.total(cluster),
        ACCOUNTS as i64 * INITIAL,
        "{label}: chaos lost or duplicated money"
    );
}

/// Splits landing under a running scan: a split-happy two-region
/// cluster grows to many regions while the audit scan is continuously
/// in flight, so map flips are guaranteed to land mid-continuation.
/// The first-leg cache is stale after every flip — the continuation
/// must refresh and resume without dropping or duplicating cells.
#[test]
fn scan_under_split_matches_oracle() {
    for shift in [0u32, 3, 7] {
        let mut cfg = ClusterConfig {
            seed: 9101,
            servers: 3,
            clients: 6,
            regions: 2,
            key_count: ACCOUNTS,
            ..ClusterConfig::default()
        };
        cfg.server_cfg.split.enabled = true;
        cfg.server_cfg.split.threshold_bytes = 48 << 10;
        cfg.server_cfg.memstore_flush_bytes = 12 << 10;
        cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
        cfg.server_cfg.split.check_interval = SimDuration::from_millis(300);
        let cluster = Cluster::build(cfg);
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        let audit = new_audit(&cluster, &["bal", "pad"]);
        start_audit(cluster.client(0).clone(), Rc::clone(&audit));
        // Bulky single-row writes into a hot prefix grow region 0 past
        // the split threshold while transfers roam the whole key space.
        let mut n = 0u64;
        let grown = run_until(
            &cluster,
            SimDuration::from_millis(300),
            SimDuration::from_secs(120),
            || {
                round(&cluster, &committed);
                let client = cluster.client(1).clone();
                let key = cluster.sim.gen_range(0, 100);
                let pad = format!("{n:_<512}");
                n += 1;
                client.begin(move |txn| {
                    let Ok(txn) = txn else { return };
                    let _ = txn.put(account(key), "pad", pad);
                    txn.commit(|_| {});
                });
                cluster.master.splits_applied() >= 2
            },
        );
        assert!(grown, "shift {shift}: no splits ever applied");
        audit.stop.set(true);
        cluster.run_for(SimDuration::from_secs(20));
        final_audit(&cluster, &audit, &format!("shift {shift}"), 5, 2.2);
    }
}

/// Merges landing under a running scan: the merge-happy cluster from
/// `tests/merges.rs` (setup crash packs adjacent regions onto
/// survivors) shrinks the region count while audits run back-to-back —
/// the continuation's cached next-region routing goes stale at every
/// merge flip and must recover via refresh-and-retry.
#[test]
fn scan_under_merge_matches_oracle() {
    const SEED: u64 = 9202;
    for shift in [0u32, 3, 7] {
        let mut cfg = ClusterConfig {
            seed: SEED,
            servers: 4,
            clients: 6,
            regions: 8,
            key_count: ACCOUNTS,
            ..ClusterConfig::default()
        };
        cfg.server_cfg.merge.enabled = true;
        cfg.server_cfg.memstore_flush_bytes = 12 << 10;
        cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
        cfg.server_cfg.merge.check_interval = SimDuration::from_millis(300);
        let cluster = Cluster::build(cfg);
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        let audit = new_audit(&cluster, &["bal"]);
        start_audit(cluster.client(0).clone(), Rc::clone(&audit));
        // Setup crash: the failover puts the victim's regions onto
        // survivors, which must create the adjacent co-hosted pair merge
        // candidacy needs — and it already lands under a live scan.
        crash_for_adjacency(&cluster, &format!("seed {SEED} shift {shift}"), || {
            round(&cluster, &committed)
        });
        let merged = run_until(
            &cluster,
            SimDuration::from_millis(300),
            SimDuration::from_secs(120),
            || {
                round(&cluster, &committed);
                cluster.master.merges_applied() >= 1
            },
        );
        assert!(merged, "shift {shift}: no merge ever applied");
        audit.stop.set(true);
        cluster.run_for(SimDuration::from_secs(30));
        final_audit(&cluster, &audit, &format!("shift {shift}"), 5, 3.0);
    }
}

/// Servers crashing mid-continuation: with audits back-to-back on an
/// 8-region cluster, the scheduled crashes are guaranteed to land while
/// a scan is part-way through its region walk. The in-flight leg times
/// out, the continuation refreshes and retries the same cursor, and the
/// post-failover result must still equal the same-snapshot oracle.
#[test]
fn scan_with_server_crash_mid_continuation_matches_oracle() {
    const TICK: SimDuration = SimDuration::from_millis(300);
    for shift in [0u32, 3, 7] {
        let cluster = Cluster::build(ClusterConfig {
            seed: 9303,
            servers: 4,
            clients: 6,
            regions: 8,
            key_count: ACCOUNTS,
            ..ClusterConfig::default()
        });
        shift_rng(&cluster, shift);
        let committed = Rc::new(Cell::new(0u32));
        // Seed some balances before the chaos starts.
        for _ in 0..5 {
            round(&cluster, &committed);
            cluster.run_for(TICK);
        }
        let audit = new_audit(&cluster, &["bal"]);
        start_audit(cluster.client(0).clone(), Rc::clone(&audit));
        ChaosSchedule::new()
            .at(TICK * 8, ChaosAction::CrashServer(1))
            .at(TICK * 24, ChaosAction::CrashServer(2))
            .run_rounds(&cluster, 40, TICK, |cluster, _| {
                round(cluster, &committed);
            });
        audit.stop.set(true);
        cluster.run_for(SimDuration::from_secs(30));
        assert!(
            cluster.master.failover_count() >= 2,
            "shift {shift}: both crashes must be recovered"
        );
        final_audit(&cluster, &audit, &format!("shift {shift}"), 10, 6.0);
    }
}

/// The quiescent counterpart of the chaos schedules above, exact where
/// they can only bound: on a fault-free 8-region cluster a
/// boundary-aligned scan spanning `span` regions costs exactly `span`
/// leg RPCs (one per region, no retry, no extra leg at a boundary) and
/// returns exactly the rows of those regions, each once and in order.
/// Every start region that fits the span is scanned, so legs land on
/// all four servers, and a range ending at the table end runs the
/// unbounded-end continuation.
#[test]
fn quiescent_scan_costs_one_leg_per_region_spanned_and_returns_exact_rows() {
    const REGIONS: u64 = 8;
    const ROWS: u64 = 800;
    let cluster = Cluster::build(ClusterConfig {
        seed: 9404,
        servers: 4,
        clients: 1,
        regions: REGIONS as usize,
        key_count: ROWS,
        ..ClusterConfig::default()
    });
    cluster.load_rows(ROWS, &["f0"], 100, true);
    let key = |i: u64| format!("user{i:012}");
    for span in [1u64, 2, 4, 8] {
        for first in 0..=REGIONS - span {
            let (lo, hi) = (ROWS * first / REGIONS, ROWS * (first + span) / REGIONS);
            let end = (first + span < REGIONS).then(|| bytes::Bytes::from(key(hi)));
            let legs_before = cluster.client(0).store_client().scan_leg_rpcs();
            let hits = Rc::new(RefCell::new(None));
            let hits2 = Rc::clone(&hits);
            cluster.client(0).begin(move |txn| {
                let txn = txn.expect("fault-free cluster: begin succeeds");
                let txn2 = txn.clone();
                txn.scan(key(lo), end, (hi - lo) as usize + 16, move |r| {
                    *hits2.borrow_mut() = Some(r.expect("fault-free cluster: scan succeeds"));
                    txn2.abort();
                });
            });
            let done = run_until(
                &cluster,
                SimDuration::from_millis(10),
                SimDuration::from_secs(10),
                || hits.borrow().is_some(),
            );
            assert!(done, "span {span} from region {first}: scan did not finish");
            let rows: Vec<String> = hits
                .take()
                .expect("scan finished")
                .iter()
                .map(|(row, _, _)| String::from_utf8_lossy(row).into_owned())
                .collect();
            let want: Vec<String> = (lo..hi).map(key).collect();
            assert_eq!(
                rows, want,
                "span {span} from region {first}: rows dropped, duplicated or out of order"
            );
            assert_eq!(
                cluster.client(0).store_client().scan_leg_rpcs() - legs_before,
                span,
                "span {span} from region {first}: one leg RPC per region spanned"
            );
        }
    }
}
