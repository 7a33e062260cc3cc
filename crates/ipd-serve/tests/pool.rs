//! The connection-pool satellite: [`ClientPool`] must bound concurrency at
//! its capacity (checkout blocks, `try_checkout` reports exhaustion), hand
//! warm connections back out, and — because every pooled client is a
//! [`RetryClient`] — survive a full server restart between checkouts.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ipd::{IpdEngine, IpdParams};
use ipd_lpm::Addr;
use ipd_serve::{ClientPool, EpochSwap, LiveStore, RetryPolicy, ServeServer, ServeTelemetry};
use ipd_topology::IngressPoint;

fn classified_store() -> LiveStore {
    let params = IpdParams {
        ncidr_factor_v4: 0.01,
        ..IpdParams::default()
    };
    let mut e = IpdEngine::new(params).unwrap();
    for i in 0..600u32 {
        e.ingest_parts(30, Addr::v4(i * 1024), IngressPoint::new(1, 1), 1);
        e.ingest_parts(
            30,
            Addr::v4(0x8000_0000 + i * 1024),
            IngressPoint::new(2, 4),
            1,
        );
    }
    e.tick(60);
    e.tick(61);
    let store = LiveStore::new(1);
    store.publish_full(&e.served_rows(), 61);
    store
}

fn fast_policy(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        attempts,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
    }
}

#[test]
fn pool_bounds_checkouts_and_reuses_connections() {
    let swap = EpochSwap::new(classified_store());
    let server = ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
    let pool = ClientPool::new(server.local_addr(), 2, fast_policy(5)).expect("resolve");
    assert_eq!(pool.capacity(), 2);

    // Two checkouts fit; the third must report exhaustion, not block.
    let mut a = pool.checkout();
    let mut b = pool.try_checkout().expect("second client fits");
    assert!(pool.try_checkout().is_none(), "pool should be exhausted");
    assert_eq!(pool.outstanding(), 2);

    let (_, ans) = a.lookup(Addr::v4(0x0100_0000)).expect("lookup via a");
    assert_eq!((ans.router, ans.ifindex), (1, 1));
    assert_eq!(b.info().expect("info via b").ts, 61);

    // Returning one client unblocks a parked checkout...
    let waiter = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let mut c = pool.checkout();
            c.info().expect("info via blocked checkout").entries
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    drop(a);
    assert!(waiter.join().expect("waiter finishes") > 0);

    // ...and a returned client keeps its warm connection: no reconnects
    // across checkout/checkin cycles against a healthy server.
    drop(b);
    let mut c = pool.checkout();
    c.info().expect("info via reused client");
    assert_eq!(c.reconnects(), 0, "healthy path must not reconnect");
    drop(c);
    assert_eq!(pool.outstanding(), 0);
    assert!(pool.idle() >= 1);
    server.shutdown();
}

#[test]
fn pool_survives_a_server_restart() {
    // Reserve a port so the restarted server can come back at the same
    // address the pool resolved.
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let server = ServeServer::serve(
        &addr.to_string(),
        EpochSwap::new(classified_store()),
        ServeTelemetry::default(),
    )
    .expect("bind");
    let pool = ClientPool::new(addr, 3, fast_policy(40)).expect("resolve");
    {
        let mut c = pool.checkout();
        assert_eq!(c.info().expect("info before restart").ts, 61);
    }

    // Kill the server; the idle client's cached connection is now dead.
    server.shutdown();
    let restarted = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        ServeServer::serve(
            &addr.to_string(),
            EpochSwap::new(classified_store()),
            ServeTelemetry::default(),
        )
        .expect("rebind")
    });

    // The same pooled client rides its retry policy through the restart
    // window: dead connection dropped, reconnect once the port is back.
    let mut c = pool.checkout();
    let info = c.info().expect("info after restart");
    assert_eq!(info.ts, 61);
    assert!(c.reconnects() >= 1, "restart must cost >= 1 reconnect");
    restarted.join().expect("server thread").shutdown();
}

#[test]
fn exhausted_pool_serializes_a_thread_herd() {
    let swap = EpochSwap::new(classified_store());
    let server = ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
    let pool = ClientPool::new(server.local_addr(), 2, fast_policy(5)).expect("resolve");

    // 8 threads through a 2-slot pool: everyone gets an answer, and the
    // pool never holds more clients than its capacity afterwards.
    let peak = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let pool = pool.clone();
        let peak = Arc::clone(&peak);
        handles.push(std::thread::spawn(move || {
            let mut c = pool.checkout();
            peak.fetch_max(pool.outstanding(), Ordering::SeqCst);
            c.lookup(Addr::v4(0x0100_0000)).expect("pooled lookup").0
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
    assert!(peak.load(Ordering::SeqCst) <= 2, "capacity exceeded");
    assert_eq!(pool.outstanding(), 0);
    assert!(pool.idle() <= 2, "pool retained more clients than capacity");
    server.shutdown();
}
