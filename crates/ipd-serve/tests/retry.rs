//! The retry satellite: [`RetryClient`] must survive a flaky network path
//! (dropped connections, mid-request resets) by reconnecting with bounded,
//! jittered backoff — and must give up after the configured attempts when
//! the server is genuinely gone.
//!
//! Flakiness is injected with an in-process TCP proxy in front of a real
//! [`ServeServer`]: the proxy drops the first N connections outright, then
//! pumps bytes both ways for the rest.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ipd::{IpdEngine, IpdParams};
use ipd_lpm::Addr;
use ipd_serve::{
    ClientError, EpochSwap, LiveStore, RetryClient, RetryPolicy, ServeServer, ServeTelemetry,
};
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

/// A proxy that drops the first `drop_first` accepted connections (after
/// reading a few bytes, so the client sees a mid-request reset rather than
/// a refused connect), then relays transparently to `upstream`.
fn flaky_proxy(upstream: SocketAddr, drop_first: usize) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut client) = stream else { break };
            let n = counter.fetch_add(1, Ordering::SeqCst);
            if n < drop_first {
                // Swallow the request bytes, then slam the door.
                let mut sink = [0u8; 64];
                let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
                let _ = client.read(&mut sink);
                drop(client);
                continue;
            }
            std::thread::spawn(move || {
                let Ok(server) = TcpStream::connect(upstream) else {
                    return;
                };
                let mut c2s_src = client.try_clone().expect("clone");
                let mut c2s_dst = server.try_clone().expect("clone");
                let pump = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut c2s_src, &mut c2s_dst);
                    let _ = c2s_dst.shutdown(std::net::Shutdown::Write);
                });
                let mut s2c_src = server;
                let mut s2c_dst = client;
                let _ = std::io::copy(&mut s2c_src, &mut s2c_dst);
                let _ = s2c_dst.shutdown(std::net::Shutdown::Write);
                let _ = pump.join();
            });
        }
    });
    (addr, accepted)
}

#[test]
fn retry_client_rides_out_dropped_connections() {
    let swap = EpochSwap::new(classified_store());
    let server = ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
    let (proxy, accepted) = flaky_proxy(server.local_addr(), 3);

    let mut client = RetryClient::new(proxy, fast_policy(6)).expect("resolve");
    let (_, answer) = client
        .lookup(Addr::v4(0x0100_0000))
        .expect("lookup survives flakiness");
    assert_eq!((answer.router, answer.ifindex), (1, 1));
    // The three dropped connections each cost one reconnect.
    assert!(
        client.reconnects() >= 3,
        "expected >= 3 reconnects, saw {}",
        client.reconnects()
    );
    assert!(accepted.load(Ordering::SeqCst) >= 4);

    // The healthy connection is reused: more ops, no more reconnects.
    let before = client.reconnects();
    let info = client.info().expect("info");
    assert_eq!(info.ts, 61);
    let (_, answers) = client
        .batch(&[Addr::v4(0x0100_0000), Addr::v6(1)])
        .expect("batch");
    assert_eq!(answers.len(), 2);
    assert_eq!(client.reconnects(), before);
    server.shutdown();
}

#[test]
fn retry_client_gives_up_after_bounded_attempts() {
    // A listener that accepts and instantly drops everything, forever.
    let (proxy, accepted) = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(s) = stream else { break };
                counter.fetch_add(1, Ordering::SeqCst);
                drop(s);
            }
        });
        (addr, accepted)
    };

    let mut client = RetryClient::new(proxy, fast_policy(4)).expect("resolve");
    let err = client.info().expect_err("server never answers");
    assert!(matches!(err, ClientError::Io(_)), "got {err}");
    // Exactly `attempts` connections were made — bounded, not infinite.
    let seen = accepted.load(Ordering::SeqCst);
    assert!(seen <= 4, "made {seen} attempts, policy allows 4");
}

#[test]
fn retry_client_connects_lazily_to_a_late_binding_server() {
    // Reserve an address, but only start the server after the client's
    // first attempt has already failed once.
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let mut client = RetryClient::new(addr, fast_policy(40)).expect("resolve");
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let swap = EpochSwap::new(classified_store());
        ServeServer::serve(&addr.to_string(), swap, ServeTelemetry::default()).expect("bind")
    });
    let info = client.info().expect("eventually connects");
    assert_eq!(info.ts, 61);
    server_thread.join().unwrap().shutdown();
}
