//! Stress and property tests of the coordination substrate: many
//! sessions, interleaved expiries, watch storms.

#![expect(
    clippy::disallowed_methods,
    reason = "CD007: a test drives the kernel from outside any process"
)]

use bytes::Bytes;
use cumulo_coord::{CoordClient, CoordService, SessionId, WatchEvent};
use cumulo_sim::{LatencyConfig, Network, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn setup(seed: u64) -> (Sim, Rc<Network>, Rc<CoordService>) {
    let sim = Sim::new(seed);
    let net = Network::new(&sim, LatencyConfig::lan_100mbps());
    let node = net.add_node("coord");
    let svc = CoordService::new(&sim, &net, node, SimDuration::from_millis(100));
    (sim, net, svc)
}

#[test]
fn fifty_sessions_with_mixed_lifecycles() {
    let (sim, net, svc) = setup(7);
    let mut clients = Vec::new();
    for i in 0..50 {
        let node = net.add_node(&format!("c{i}"));
        let client = CoordClient::new(&net, &svc, node);
        let sid: Rc<Cell<Option<SessionId>>> = Rc::new(Cell::new(None));
        let s2 = sid.clone();
        client.create_session(SimDuration::from_secs(2), move |s| s2.set(Some(s)));
        clients.push((client, sid, node));
    }
    sim.run_for(SimDuration::from_millis(200));
    // Everyone registers a liveness znode and starts heartbeating.
    let beat = SimDuration::from_millis(500);
    for (i, (client, sid, node)) in clients.iter().enumerate() {
        let s = sid.get().expect("session");
        client.create(&format!("/live/{i}"), Bytes::new(), Some(s));
        let c2 = client.clone();
        net.every(*node, beat, beat, move || c2.touch(s));
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(svc.children("/live/").len(), 50);

    // Crash a third; their sessions must expire, others must survive.
    for (_, _, node) in clients.iter().take(17) {
        net.crash(*node);
    }
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(svc.children("/live/").len(), 33);
    assert_eq!(svc.expired_session_count(), 17);

    // The rest shut down cleanly.
    for (client, sid, node) in clients.iter().skip(17) {
        client.close_session(sid.get().unwrap());
        net.stop_timers(*node);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(svc.children("/live/").len(), 0);
}

#[test]
fn watch_storm_delivers_every_event_in_order() {
    let (sim, net, svc) = setup(8);
    let watcher = net.add_node("watcher");
    let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let ev = events.clone();
    svc.watch_prefix("/data/", watcher, move |e| {
        if let WatchEvent::DataChanged(p) | WatchEvent::Created(p) = e {
            ev.borrow_mut().push(p);
        }
    });
    let writer_node = net.add_node("writer");
    let writer = CoordClient::new(&net, &svc, writer_node);
    for i in 0..500 {
        writer.set_data(&format!("/data/key{}", i % 10), Bytes::from(vec![i as u8]));
    }
    sim.run_for(SimDuration::from_secs(5));
    let events = events.borrow();
    assert_eq!(events.len(), 500, "every event delivered exactly once");
    // FIFO end-to-end: per-key order must match write order.
    for k in 0..10 {
        let key = format!("/data/key{k}");
        let count = events.iter().filter(|p| **p == key).count();
        assert_eq!(count, 50);
    }
}

proptest! {
    /// Sessions expire if and only if their touch stream pauses longer
    /// than the timeout.
    #[test]
    fn expiry_iff_touches_stop(
        touch_period_ms in 50u64..2_000,
        timeout_ms in 300u64..3_000,
    ) {
        let (sim, _net, svc) = setup(9);
        let sid = svc.create_session(SimDuration::from_millis(timeout_ms));
        // Touch for 10 periods.
        for i in 1..=10u64 {
            let svc2 = Rc::clone(&svc);
            sim.schedule_at(SimTime::from_nanos(i * touch_period_ms * 1_000_000), move || {
                svc2.touch(sid);
            });
        }
        let active_window = 10 * touch_period_ms;
        sim.run_until(SimTime::from_nanos(active_window * 1_000_000));
        let survived_active = svc.session_alive(sid);
        if touch_period_ms + 150 < timeout_ms {
            // Sweep granularity is 100 ms; allow slack.
            prop_assert!(survived_active, "session died while being touched");
        }
        // Stop touching: must expire within timeout + sweep slack.
        sim.run_for(SimDuration::from_millis(timeout_ms + 300));
        prop_assert!(!svc.session_alive(sid), "session must expire after touches stop");
    }

    /// Znode CRUD through the RPC client matches a model map.
    #[test]
    fn znode_crud_matches_model(
        ops in prop::collection::vec((0u8..4, 0u8..8, any::<u8>()), 1..60),
    ) {
        let (sim, net, svc) = setup(10);
        let node = net.add_node("c");
        let client = CoordClient::new(&net, &svc, node);
        let mut model: std::collections::BTreeMap<String, u8> = Default::default();
        for (op, key, val) in ops {
            let path = format!("/m/{key}");
            match op {
                0 | 1 => {
                    client.set_data(&path, Bytes::from(vec![val]));
                    model.insert(path, val);
                }
                2 => {
                    client.delete(&path);
                    model.remove(&path);
                }
                _ => {}
            }
            // Let the FIFO pipeline drain before comparing.
            sim.run_for(SimDuration::from_millis(10));
        }
        sim.run_for(SimDuration::from_millis(100));
        let listed = svc.children("/m/");
        let expect: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(listed, expect);
        for (path, val) in &model {
            prop_assert_eq!(svc.get_data(path), Some(Bytes::from(vec![*val])));
        }
    }
}
