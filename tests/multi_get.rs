//! The batched read path: `Transaction::multi_get` must cost exactly one
//! store RPC per region touched, return byte-identical results to the
//! same `get`s issued sequentially over the same stack (including under
//! a server-crash/recovery schedule), and answer cells the transaction
//! itself wrote locally without any RPC.

mod common;

use bytes::Bytes;
use common::{begin_txn, key};
use cumulo_core::{Cluster, ClusterConfig, Transaction};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

fn build(seed: u64) -> Cluster {
    Cluster::build(ClusterConfig {
        seed,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    })
}

/// Commits `puts` through a fresh transaction and waits for the ack.
fn commit_cells(c: &Cluster, puts: &[(u64, &str)]) {
    let puts: Vec<(String, String)> = puts.iter().map(|(k, v)| (key(*k), v.to_string())).collect();
    let done: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let d = done.clone();
    c.client(0).begin(move |txn| {
        let txn = txn.expect("begin");
        for (row, val) in &puts {
            txn.put(row.clone(), "f0", val.clone()).unwrap();
        }
        txn.commit(move |r| {
            r.expect("commit");
            *d.borrow_mut() = true;
        });
    });
    let deadline = c.now() + SimDuration::from_secs(20);
    while !*done.borrow() {
        c.run_for(SimDuration::from_millis(50));
        assert!(c.now() < deadline, "seed commit stalled");
    }
    // Let the flush land so snapshots can see it.
    c.run_for(SimDuration::from_secs(3));
}

/// Runs `multi_get` for `cells` on `txn`, driving the cluster until the
/// batch completes.
fn multi_get(c: &Cluster, txn: &Transaction, cells: &[(String, &str)]) -> Vec<Option<Vec<u8>>> {
    let cells: Vec<(Bytes, Bytes)> = cells
        .iter()
        .map(|(r, col)| (Bytes::from(r.clone()), Bytes::from(col.to_string())))
        .collect();
    let out: Rc<RefCell<Option<Vec<Option<Vec<u8>>>>>> = Rc::new(RefCell::new(None));
    let o = out.clone();
    txn.multi_get(cells, move |r| {
        *o.borrow_mut() = Some(
            r.expect("multi_get on an active txn")
                .into_iter()
                .map(|v| v.map(|b| b.to_vec()))
                .collect(),
        );
    });
    let deadline = c.now() + SimDuration::from_secs(30);
    while out.borrow().is_none() {
        c.run_for(SimDuration::from_millis(50));
        assert!(c.now() < deadline, "multi_get stalled");
    }
    let v = out.borrow_mut().take().unwrap();
    v
}

/// Runs the same cells as sequential `get`s on `txn`.
fn sequential_gets(
    c: &Cluster,
    txn: &Transaction,
    cells: &[(String, &str)],
) -> Vec<Option<Vec<u8>>> {
    let mut out = Vec::new();
    for (row, col) in cells {
        let slot: Rc<RefCell<Option<Option<Vec<u8>>>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        txn.get(row.clone(), col.to_string(), move |v| {
            *s.borrow_mut() = Some(v.expect("get on an active txn").map(|b| b.to_vec()));
        });
        let deadline = c.now() + SimDuration::from_secs(30);
        while slot.borrow().is_none() {
            c.run_for(SimDuration::from_millis(50));
            assert!(c.now() < deadline, "get stalled");
        }
        let v = slot.borrow_mut().take().unwrap();
        out.push(v);
    }
    out
}

/// The acceptance check: N cells spanning R regions cost exactly R
/// multi-get RPCs and return byte-identical results to N sequential
/// gets at the same snapshot.
#[test]
fn multi_get_costs_one_rpc_per_region_and_matches_sequential_gets() {
    let c = build(501);
    // Rows 10/300/600/900 land in the four quarter regions of a
    // 1000-key space; include a missing cell and a repeated region.
    commit_cells(&c, &[(10, "a"), (300, "b"), (600, "c"), (900, "d")]);
    let cells: Vec<(String, &str)> = vec![
        (key(10), "f0"),
        (key(300), "f0"),
        (key(600), "f0"),
        (key(900), "f0"),
        (key(11), "f0"),  // absent cell, same region as 10
        (key(601), "f0"), // absent cell, same region as 600
    ];
    let client = c.client(1);
    let txn = begin_txn(&c, 1);

    let rpcs_before = client.store_client().multi_get_rpcs();
    let gets_before = client.store_client().gets_ok();
    let batched = multi_get(&c, &txn, &cells);
    let rpcs = client.store_client().multi_get_rpcs() - rpcs_before;
    assert_eq!(rpcs, 4, "6 cells over 4 regions must cost exactly 4 RPCs");
    assert_eq!(
        client.store_client().gets_ok(),
        gets_before,
        "the batched path must not issue lone gets"
    );

    // The same cells, sequentially, in the same transaction (same
    // snapshot, same stack): byte-identical answers, 6 round trips.
    let sequential = sequential_gets(&c, &txn, &cells);
    assert_eq!(batched, sequential, "batched and lone reads disagree");
    assert_eq!(
        client.store_client().gets_ok() - gets_before,
        6,
        "the sequential control costs one round trip per cell"
    );
    assert_eq!(batched[0].as_deref(), Some(&b"a"[..]));
    assert_eq!(batched[4], None, "absent cell reads as None");
    txn.abort();
}

/// Read-your-own-writes: cells the transaction wrote (puts and deletes)
/// are answered from the local write-set; only the rest cost RPCs.
#[test]
fn multi_get_answers_own_writes_locally() {
    let c = build(502);
    commit_cells(&c, &[(10, "committed-10"), (300, "committed-300")]);
    let txn = begin_txn(&c, 1);
    txn.put(key(10), "f0", "overwritten").unwrap();
    txn.delete(key(300), "f0").unwrap();
    txn.put(key(999), "f0", "fresh").unwrap();

    let client = c.client(1);
    let rpcs_before = client.store_client().multi_get_rpcs();
    // 10 (own put), 300 (own delete), 999 (own put), 600 (needs the store).
    let cells: Vec<(String, &str)> = vec![
        (key(10), "f0"),
        (key(300), "f0"),
        (key(999), "f0"),
        (key(600), "f0"),
    ];
    let got = multi_get(&c, &txn, &cells);
    assert_eq!(got[0].as_deref(), Some(&b"overwritten"[..]));
    assert_eq!(got[1], None, "own delete hides the committed cell");
    assert_eq!(got[2].as_deref(), Some(&b"fresh"[..]));
    assert_eq!(got[3], None, "absent remote cell");
    assert_eq!(
        client.store_client().multi_get_rpcs() - rpcs_before,
        1,
        "only the one non-local cell's region may be contacted"
    );
    // A fully-local batch costs zero RPCs.
    let rpcs_before = client.store_client().multi_get_rpcs();
    let local = multi_get(&c, &txn, &[(key(10), "f0"), (key(999), "f0")]);
    assert_eq!(local[0].as_deref(), Some(&b"overwritten"[..]));
    assert_eq!(
        client.store_client().multi_get_rpcs(),
        rpcs_before,
        "an all-local batch must not touch the store"
    );
    txn.abort();
}

/// Equivalence under failure: a server crashes and recovers between the
/// seed commits and the reads; the batched path (whose retries refresh
/// the map and re-group) must still agree byte-for-byte with sequential
/// gets over the same recovered stack.
#[test]
fn multi_get_matches_gets_through_server_crash_and_recovery() {
    let c = build(503);
    let seeded: Vec<(u64, String)> = (0..24u64).map(|i| (i * 41, format!("v{i}"))).collect();
    let seed_refs: Vec<(u64, &str)> = seeded.iter().map(|(k, v)| (*k, v.as_str())).collect();
    commit_cells(&c, &seed_refs);

    // Crash one server; begin the reading transaction while failover and
    // transactional recovery are still in flight, so the batch's
    // per-region RPCs retry through NotServing windows.
    c.crash_server(0);
    c.run_for(SimDuration::from_millis(500));
    let txn = begin_txn(&c, 1);
    let cells: Vec<(String, &str)> = seeded.iter().map(|(k, _)| (key(*k), "f0")).collect();
    let batched = multi_get(&c, &txn, &cells);
    let sequential = sequential_gets(&c, &txn, &cells);
    assert_eq!(
        batched, sequential,
        "crash/recovery made the batched path diverge"
    );
    for (i, (_, v)) in seeded.iter().enumerate() {
        assert_eq!(
            batched[i].as_deref(),
            Some(v.as_bytes()),
            "cell {i} lost through the crash"
        );
    }
    txn.abort();
    assert!(
        c.all_regions_online() || {
            c.run_for(SimDuration::from_secs(15));
            c.all_regions_online()
        }
    );
}
