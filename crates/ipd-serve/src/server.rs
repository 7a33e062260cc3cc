//! The threaded TCP query front-end, mirroring the `MetricsServer` idiom:
//! a blocking accept loop on a background thread, stopped by a flag plus a
//! self-connection wake. Unlike the one-shot metrics endpoint, query
//! connections are long-lived, so each gets its own handler thread with its
//! own [`Reader`] — the lookup hot path touches one atomic and the store,
//! nothing else shared. At most [`ServeServer::MAX_CONNECTIONS`] handler
//! threads run at once: a connection accepted beyond that is closed
//! unanswered and counted, so a storm of connections cannot grow the
//! thread count.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::history::HistoryProvider;
use crate::live::LiveStore;
use crate::proto::{
    decode_request, encode_response, frame, request_op, Request, Response, WireAnswer, WireChange,
    MAX_DIFF, MAX_FRAME,
};
use crate::swap::{EpochSwap, Reader};
use crate::telemetry::ServeTelemetry;

/// How often a blocked connection read wakes to check the stop flag; also
/// the epoch poll cadence of a parked `WaitEpoch`.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest a `WaitEpoch` request parks before answering with whatever is
/// current — a slow publisher must not pin connection threads forever.
const WAIT_EPOCH_MAX: Duration = Duration::from_secs(30);

/// A running query server. Dropping it shuts it down; call
/// [`ServeServer::shutdown`] to do so explicitly.
pub struct ServeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServeServer {
    /// Open connections served at once, one handler thread each. A
    /// connection accepted while this many are open is closed before its
    /// first request is read and counted in
    /// `ipd_serve_connections_rejected_total`.
    pub const MAX_CONNECTIONS: usize = 256;

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and answer
    /// queries against whatever `swap` currently publishes. The longitudinal
    /// ops answer "unknown" — use [`ServeServer::serve_with_history`] to
    /// attach a store.
    pub fn serve(
        addr: &str,
        swap: EpochSwap<LiveStore>,
        metrics: ServeTelemetry,
    ) -> std::io::Result<ServeServer> {
        Self::serve_with_history(addr, swap, metrics, None)
    }

    /// [`ServeServer::serve`] with a longitudinal store attached: `QueryAt`
    /// and `DiffRange` are answered from `history`.
    pub fn serve_with_history(
        addr: &str,
        swap: EpochSwap<LiveStore>,
        metrics: ServeTelemetry,
        history: Option<Arc<dyn HistoryProvider>>,
    ) -> std::io::Result<ServeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("ipd-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let mut conns = conns.lock().expect("conns poisoned");
                        reap_finished(&mut conns);
                        if conns.len() >= Self::MAX_CONNECTIONS {
                            // Dropping the stream closes it unanswered.
                            metrics.connections_rejected.inc();
                            continue;
                        }
                        metrics.connections.inc();
                        let reader = swap.reader();
                        let stop = Arc::clone(&stop);
                        let metrics = metrics.clone();
                        let history = history.clone();
                        let handle = std::thread::Builder::new()
                            .name("ipd-serve-conn".into())
                            .spawn(move || {
                                let _ = handle_conn(stream, reader, history, &metrics, &stop);
                            });
                        if let Ok(handle) = handle {
                            conns.push(handle);
                        }
                    }
                })?
        };
        Ok(ServeServer {
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake idle connections, and join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop out of `incoming()`.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // Connection threads notice the flag within one poll interval.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conns poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Join the connection threads that have already exited, so a long-lived
/// server holds handles only for connections still open.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    for h in conns.extract_if(.., |h| h.is_finished()) {
        let _ = h.join();
    }
}

/// One read: either a whole frame payload, or the connection is done
/// (clean EOF at a frame boundary, or server shutdown).
enum ReadOutcome {
    Frame(Vec<u8>),
    Closed,
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts (used as the
/// stop-flag poll). `Ok(false)` means the peer closed cleanly before the
/// first byte; EOF mid-buffer is an error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn read_frame(stream: &mut TcpStream, stop: &AtomicBool) -> std::io::Result<ReadOutcome> {
    let mut len = [0u8; 4];
    if !read_full(stream, &mut len, stop)? {
        return Ok(ReadOutcome::Closed);
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, stop)? {
        return Ok(ReadOutcome::Closed);
    }
    Ok(ReadOutcome::Frame(payload))
}

/// The extended (v2) Info shape: store metadata plus freshness accounting.
/// The swap's own epoch counts *rotations* (it only advances on compaction
/// rebuilds); epoch age comes from the publish watermark's wall stamp and
/// is 0 when the server runs without telemetry.
fn info_response(
    current: &crate::swap::Versioned<LiveStore>,
    metrics: &ServeTelemetry,
) -> Response {
    Response::Info {
        epoch: current.value.epoch(),
        ts: current.value.ts(),
        entries: current.value.len() as u64,
        memory_bytes: current.value.memory_bytes() as u64,
        garbage: current.value.garbage() as u64,
        rotations: current.epoch,
        age_nanos: metrics.publish_watermark.age_nanos(),
    }
}

fn handle_conn(
    mut stream: TcpStream,
    mut reader: Reader<LiveStore>,
    history: Option<Arc<dyn HistoryProvider>>,
    metrics: &ServeTelemetry,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    loop {
        let payload = match read_frame(&mut stream, stop)? {
            ReadOutcome::Frame(p) => p,
            ReadOutcome::Closed => return Ok(()),
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(_) => {
                // A peer speaking the wrong protocol gets a closed socket,
                // not a guess at what it meant.
                metrics.proto_errors.inc();
                return Ok(());
            }
        };
        metrics.requests.inc();
        let op = request_op(&req);
        // The store updates in place, so the epoch stamped on a response is
        // a *floor*: it is read before the lookups, and any answer is at
        // least that fresh (per-row seqlock validation rules out torn
        // mixes). The Arc form keeps the reader free for the WaitEpoch arm
        // to re-poll, and pins the store across a compaction rotation.
        let current = reader.current_arc();
        let epoch = current.value.epoch();
        let resp = match &req {
            Request::Lookup(addr) => {
                let timer = metrics.lookup_duration.start_timer();
                let answer = WireAnswer::from_lookup(current.value.lookup(*addr));
                drop(timer);
                metrics.lookups.inc();
                if !answer.is_mapped() {
                    metrics.unmapped.inc();
                }
                Response::Answers {
                    epoch,
                    answers: vec![answer],
                }
            }
            Request::Batch(addrs) => {
                metrics.batch_size.observe(addrs.len() as u64);
                let timer = metrics.lookup_duration.start_timer();
                let answers: Vec<WireAnswer> = addrs
                    .iter()
                    .map(|&a| WireAnswer::from_lookup(current.value.lookup(a)))
                    .collect();
                drop(timer);
                metrics.lookups.add(addrs.len() as u64);
                metrics
                    .unmapped
                    .add(answers.iter().filter(|a| !a.is_mapped()).count() as u64);
                Response::Answers { epoch, answers }
            }
            Request::Info => info_response(&current, metrics),
            Request::QueryAt { epoch, addr } => {
                let store = history.as_ref().and_then(|h| h.at_epoch(*epoch));
                let answers = match &store {
                    // Zero answers = the store does not hold that epoch
                    // (or no history is attached at all).
                    None => vec![],
                    Some(s) => {
                        let timer = metrics.lookup_duration.start_timer();
                        let answer = WireAnswer::from_lookup(s.lookup(*addr));
                        drop(timer);
                        metrics.lookups.inc();
                        if !answer.is_mapped() {
                            metrics.unmapped.inc();
                        }
                        vec![answer]
                    }
                };
                Response::Answers {
                    epoch: *epoch,
                    answers,
                }
            }
            Request::DiffRange { from, to } => {
                let changes = history
                    .as_ref()
                    .and_then(|h| h.diff(*from, *to))
                    .unwrap_or_default();
                Response::Diff {
                    from: *from,
                    to: *to,
                    changes: changes
                        .iter()
                        .take(MAX_DIFF)
                        .filter_map(WireChange::from_change)
                        .collect(),
                }
            }
            Request::WaitEpoch { min_epoch } => {
                // Park until the published epoch reaches the target, the
                // server stops, or the wait cap expires — then answer with
                // whatever is current, in the Info shape. The caller
                // distinguishes success by `epoch >= min_epoch`. The store
                // epoch advances in place, so the poll re-reads it each
                // round and also refreshes the reader to catch a rotation.
                let deadline = Instant::now() + WAIT_EPOCH_MAX;
                let mut current = current;
                while current.value.epoch() < *min_epoch
                    && !stop.load(Ordering::SeqCst)
                    && Instant::now() < deadline
                {
                    std::thread::sleep(POLL_INTERVAL);
                    current = reader.current_arc();
                }
                info_response(&current, metrics)
            }
            Request::Dump => Response::Dump {
                events: metrics.flight.dump(),
            },
        };
        stream.write_all(&frame(&encode_response(&resp, op)))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::proto::AnswerKind;
    use ipd::{IpdEngine, IpdParams, ServedRow, StoreDelta};
    use ipd_lpm::Addr;
    use ipd_telemetry::Telemetry;
    use ipd_topology::IngressPoint;

    fn classified_engine() -> IpdEngine {
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
        e
    }

    /// A live store holding `classified_engine`'s rows at epoch 1.
    fn classified_live() -> LiveStore {
        let store = LiveStore::new();
        store.publish_full(&classified_engine().served_rows(), 61);
        store
    }

    #[test]
    fn serves_lookups_batches_and_info() {
        let telemetry = Telemetry::new();
        let metrics = ServeTelemetry::register(&telemetry);
        let swap = EpochSwap::new(classified_live());
        let server = ServeServer::serve("127.0.0.1:0", swap.clone(), metrics).expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");

        let (epoch, answer) = client.lookup(Addr::v4(0x0100_0000)).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(
            (answer.kind, answer.router, answer.ifindex),
            (AnswerKind::Link, 1, 1)
        );
        assert!(answer.confidence > 0.9);

        let (_, answers) = client
            .batch(&[Addr::v4(0x0100_0000), Addr::v4(0x9000_0000), Addr::v6(1)])
            .unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].router, 1);
        assert_eq!(answers[1].router, 2);
        assert_eq!(answers[2].kind, AnswerKind::Unmapped);

        let info = client.info().unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.ts, 61);
        assert!(info.entries >= 2);
        assert!(info.memory_bytes > 0);

        // An in-place publication (here: retract everything) is visible to
        // the same persistent connection without any store rotation.
        let retract = StoreDelta::between_rows(&classified_engine().served_rows(), &[]);
        swap.load().value.apply(&retract, 62);
        let (epoch, answer) = client.lookup(Addr::v4(0x0100_0000)).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(answer.kind, AnswerKind::Unmapped);

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("ipd_serve_connections_total"), Some(1));
        assert_eq!(snap.counter("ipd_serve_requests_total"), Some(4));
        assert_eq!(snap.counter("ipd_serve_lookups_total"), Some(5));
        assert_eq!(snap.counter("ipd_serve_unmapped_total"), Some(2));
        server.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        const CYCLES: usize = 64;
        let swap = EpochSwap::new(classified_live());
        let server =
            ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
        for _ in 0..CYCLES {
            let mut client = ServeClient::connect(server.local_addr()).expect("connect");
            client.lookup(Addr::v4(0x0100_0000)).unwrap();
        }
        let tracked = server.conns.lock().unwrap().len();
        assert!(
            tracked < CYCLES / 4,
            "{tracked} connection handles tracked after {CYCLES} closed connections"
        );
        server.shutdown();
    }

    /// A fixed two-epoch history: epoch 7 = the classified rows, epoch 8 =
    /// empty; diff(7, 8) reports every range as disappeared.
    struct FixedHistory {
        rows: Vec<ServedRow>,
    }

    impl HistoryProvider for FixedHistory {
        fn at_epoch(&self, epoch: u64) -> Option<LiveStore> {
            let rows: &[ServedRow] = match epoch {
                7 => &self.rows,
                8 => &[],
                _ => return None,
            };
            let store = LiveStore::with_base_epoch(epoch - 1);
            store.publish_full(rows, 61);
            Some(store)
        }

        fn diff(&self, from: u64, to: u64) -> Option<Vec<ipd::PrefixChange>> {
            if from != 7 || to != 8 {
                return None;
            }
            Some(
                self.rows
                    .iter()
                    .map(|(p, ing, _)| ipd::PrefixChange {
                        prefix: *p,
                        before: Some(ing.clone()),
                        after: None,
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn serves_time_travel_ops_from_a_history_provider() {
        let rows = classified_engine().served_rows();
        let held = rows.len();
        let swap = EpochSwap::new(LiveStore::new());
        let history: Arc<dyn HistoryProvider> = Arc::new(FixedHistory { rows });
        let server = ServeServer::serve_with_history(
            "127.0.0.1:0",
            swap,
            ServeTelemetry::default(),
            Some(history),
        )
        .expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");

        // Live store is empty, but epoch 7 answers from history.
        let (_, live) = client.lookup(Addr::v4(0x0100_0000)).unwrap();
        assert_eq!(live.kind, AnswerKind::Unmapped);
        let past = client.query_at(7, Addr::v4(0x0100_0000)).unwrap().unwrap();
        assert_eq!(
            (past.kind, past.router, past.ifindex),
            (AnswerKind::Link, 1, 1)
        );
        // Held-but-empty epoch answers unmapped; unknown epoch answers None.
        let gone = client.query_at(8, Addr::v4(0x0100_0000)).unwrap().unwrap();
        assert_eq!(gone.kind, AnswerKind::Unmapped);
        assert!(client
            .query_at(99, Addr::v4(0x0100_0000))
            .unwrap()
            .is_none());

        let changes = client.diff_range(7, 8).unwrap();
        assert_eq!(changes.len(), held.min(MAX_DIFF));
        assert!(changes
            .iter()
            .all(|c| c.before.is_some() && c.after.is_none()));
        assert!(client.diff_range(1, 2).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn without_history_time_travel_ops_answer_unknown() {
        let swap = EpochSwap::new(classified_live());
        let server =
            ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        assert!(client.query_at(0, Addr::v4(0x0100_0000)).unwrap().is_none());
        assert!(client.diff_range(0, 1).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn wait_epoch_parks_until_publication() {
        let swap = EpochSwap::new(LiveStore::new());
        let server = ServeServer::serve("127.0.0.1:0", swap.clone(), ServeTelemetry::default())
            .expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");

        // Already satisfied: answers immediately.
        let info = client.wait_epoch(0).unwrap();
        assert_eq!(info.epoch, 0);

        // Advance the epoch from another thread after a delay — once in
        // place, once via a compaction-style rotation. The parked wait must
        // observe both kinds.
        let publisher = {
            let swap = swap.clone();
            std::thread::spawn(move || {
                let rows = classified_engine().served_rows();
                std::thread::sleep(Duration::from_millis(300));
                swap.load().value.publish_full(&rows, 61); // in-place: epoch 1
                std::thread::sleep(Duration::from_millis(300));
                let fresh = LiveStore::with_base_epoch(swap.load().value.epoch());
                fresh.publish_full(&rows, 61); // rotation: epoch 2
                swap.publish(fresh);
            })
        };
        let info = client.wait_epoch(2).unwrap();
        assert!(info.epoch >= 2, "woke at epoch {}", info.epoch);
        publisher.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn info_carries_freshness_and_dump_returns_flight_events() {
        use crate::hook::ServePublisher;
        use ipd_telemetry::EventKind;

        let telemetry = Telemetry::new();
        let metrics = ServeTelemetry::register(&telemetry);
        let mut publisher = ServePublisher::with_metrics(metrics.clone());
        let swap = publisher.swap();
        let engine = {
            let params = IpdParams {
                ncidr_factor_v4: 0.01,
                ..IpdParams::default()
            };
            let mut e = IpdEngine::new(params).unwrap();
            for i in 0..600u32 {
                e.ingest_parts(30, Addr::v4(i * 1024), IngressPoint::new(1, 1), 1);
            }
            e.tick(60);
            e
        };
        publisher.publish_now(&engine, 60);

        let server = ServeServer::serve("127.0.0.1:0", swap, metrics).expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");

        let info = client.info().unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.rotations, 0, "no compaction at this size");
        assert!(info.age_nanos > 0, "published via telemetry → stamped");

        // The publication left structured events behind, retrievable over
        // the same connection.
        let events = client.dump().unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::EpochPublished as u8 && e.ts == 60));
        server.shutdown();
    }

    #[test]
    fn malformed_frame_closes_connection_and_counts() {
        let telemetry = Telemetry::new();
        let metrics = ServeTelemetry::register(&telemetry);
        let swap = EpochSwap::new(LiveStore::new());
        let server = ServeServer::serve("127.0.0.1:0", swap, metrics).expect("bind");

        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(&frame(&[9, 9, 9])).unwrap(); // bad version
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out); // server closes without answering
        assert!(out.is_empty());
        // The error is counted (poll until the handler thread observed it).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while telemetry.snapshot().counter("ipd_serve_proto_errors_total") != Some(1) {
            assert!(std::time::Instant::now() < deadline, "error never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_with_idle_connection_open() {
        let swap = EpochSwap::new(LiveStore::new());
        let server =
            ServeServer::serve("127.0.0.1:0", swap, ServeTelemetry::default()).expect("bind");
        // An idle client holding its connection open must not wedge shutdown.
        let _idle = TcpStream::connect(server.local_addr()).unwrap();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown stalled on an idle connection"
        );
    }
}
