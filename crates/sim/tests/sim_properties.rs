//! Property-based tests of the simulation kernel's ordering guarantees —
//! the foundations the protocol correctness arguments lean on.

#![expect(
    clippy::disallowed_methods,
    reason = "CD007: a test drives the kernel from outside any process"
)]

use cumulo_sim::{LatencyConfig, Network, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events run in nondecreasing time order, with ties broken by
    /// scheduling order, for arbitrary schedules.
    #[test]
    fn events_run_in_time_then_fifo_order(
        delays in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let sim = Sim::new(3);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, d) in delays.iter().enumerate() {
            let log = log.clone();
            let s = sim.clone();
            sim.schedule_in(SimDuration::from_nanos(*d), move || {
                log.borrow_mut().push((s.now().nanos(), i));
            });
        }
        sim.run_until(SimTime::from_secs(1));
        let log = log.borrow();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Network delivery is FIFO per (src, dst) pair for any message-size
    /// pattern, despite per-message jitter.
    #[test]
    fn network_is_fifo_per_pair(
        sizes in prop::collection::vec(1usize..100_000, 1..150),
        seed in any::<u64>(),
    ) {
        let sim = Sim::new(seed);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let a = net.add_node("a");
        let b = net.add_node("b");
        let msg = net.exchange("test.msg");
        let got: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, sz) in sizes.iter().enumerate() {
            let got = got.clone();
            net.send(&msg, a, b, *sz, move || got.borrow_mut().push(i));
        }
        sim.run_until(SimTime::from_secs(60));
        prop_assert_eq!(&*got.borrow(), &(0..sizes.len()).collect::<Vec<_>>());
    }

    /// Identical seeds yield identical executions (delivery timestamps
    /// included); the regression fence for all determinism claims.
    #[test]
    fn same_seed_same_execution(seed in any::<u64>(), n in 1usize..50) {
        let run = |seed: u64| -> Vec<u64> {
            let sim = Sim::new(seed);
            let net = Network::new(&sim, LatencyConfig::lan_100mbps());
            let a = net.add_node("a");
            let b = net.add_node("b");
            let msg = net.exchange("test.msg");
            let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..n {
                let times = times.clone();
                let s = sim.clone();
                net.send(&msg, a, b, (i + 1) * 100, move || times.borrow_mut().push(s.now().nanos()));
            }
            sim.run_until(SimTime::from_secs(10));
            let out = times.borrow().clone();
            out
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Messages to a crashed node are never delivered; messages to a
    /// restarted node flow again.
    #[test]
    fn crash_restart_delivery_semantics(crash_after in 0usize..20, total in 1usize..40) {
        let sim = Sim::new(9);
        let net = Network::new(&sim, LatencyConfig::instant());
        let a = net.add_node("a");
        let b = net.add_node("b");
        let msg = net.exchange("test.msg");
        let delivered: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..total {
            if i == crash_after {
                net.crash(b);
            }
            let delivered = delivered.clone();
            net.send(&msg, a, b, 10, move || delivered.borrow_mut().push(i));
            sim.run_for(SimDuration::from_millis(1));
        }
        net.restart(b);
        let delivered2 = delivered.clone();
        net.send(&msg, a, b, 10, move || delivered2.borrow_mut().push(usize::MAX));
        sim.run_until(SimTime::from_secs(5));
        let delivered = delivered.borrow();
        // Everything before the crash arrived; nothing after (until restart).
        for i in 0..total.min(crash_after) {
            prop_assert!(delivered.contains(&i), "pre-crash message {i} lost");
        }
        for i in crash_after..total {
            prop_assert!(!delivered.contains(&i), "post-crash message {i} delivered");
        }
        prop_assert_eq!(delivered.last(), Some(&usize::MAX), "post-restart message lost");
    }
}
