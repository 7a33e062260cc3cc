//! Deterministic interleaving harness for [`ConcurrentLpm`]: reader tasks are
//! driven through every update in flight by the scheduled executor in
//! `shims/shuttle`, and every answer is checked against a replayed [`LpmTrie`]
//! oracle.
//!
//! The store calls a yield hook between its individual atomic steps
//! ([`ipd_lpm::concurrent::set_yield_hook`]); registering the executor's
//! `yield_now` there turns each atomic load/store into a scheduling point, so
//! a seeded run serialises the tasks into one explicit interleaving and the
//! trace hash identifies it. Each scenario asserts, on every lookup:
//!
//! * **no torn reads** — `lookup_versioned` returns a validated sequence
//!   number `v`; the answer must equal the oracle state after exactly `v / 2`
//!   applied updates, i.e. every observed prefix set is a prefix of the
//!   applied update sequence, never a mix of two states;
//! * **monotonicity** — per reader, validated sequence numbers (and the
//!   published epoch counter in the publication scenario) never regress.
//!
//! The smoke tests explore ≥ 1,000 distinct schedules per scenario; the
//! `--ignored` variants explore 10×.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipd_lpm::{Addr, ConcurrentLpm, LpmTrie, Prefix};

fn sched_yield() {
    shuttle::yield_now();
}

fn hook_on() {
    ipd_lpm::concurrent::set_yield_hook(Some(sched_yield));
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn a(s: &str) -> Addr {
    Addr::from(s.parse::<std::net::IpAddr>().unwrap())
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Ins(Prefix, u32),
    Del(Prefix),
}

/// `states[j][k]`: oracle answer for probe `k` after the first `j` ops.
type OracleStates = Vec<Vec<Option<(Prefix, u32)>>>;

/// Panics if any `Del` misses — the seq↔op-count mapping needs every op to
/// open exactly one mutation window.
fn oracle_states(ops: &[Op], probes: &[Addr]) -> OracleStates {
    let mut trie = LpmTrie::new();
    let eval = |t: &LpmTrie<u32>| -> Vec<_> {
        probes
            .iter()
            .map(|&x| t.lookup(x).map(|(q, v)| (q, *v)))
            .collect()
    };
    let mut out = vec![eval(&trie)];
    for op in ops {
        match *op {
            Op::Ins(q, v) => {
                trie.insert(q, v);
            }
            Op::Del(q) => {
                assert!(trie.remove(q).is_some(), "scenario bug: {q} absent");
            }
        }
        out.push(eval(&trie));
    }
    out
}

fn apply(u: &mut ipd_lpm::Updater<'_, u32>, op: Op) {
    match op {
        Op::Ins(q, v) => {
            u.insert(q, v);
        }
        Op::Del(q) => {
            assert!(u.remove(q), "scenario bug: {q} absent in store");
        }
    }
}

/// Run `mk()` under seeds until `min_distinct` distinct schedules were
/// explored (each run's trace hash identifies its interleaving).
fn explore(name: &str, min_distinct: usize, mk: impl Fn(u64) -> Box<dyn FnOnce() + Send>) {
    let mut traces = HashSet::new();
    let budget = min_distinct as u64 * 2;
    let mut seed = 0u64;
    while traces.len() < min_distinct && seed < budget {
        let r = shuttle::run(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            mk(seed),
        );
        traces.insert(r.trace);
        seed += 1;
    }
    assert!(
        traces.len() >= min_distinct,
        "{name}: only {} distinct schedules in {budget} runs",
        traces.len()
    );
}

// ---------------------------------------------------------------------------
// Scenario 1: plain op trace, 1 writer × 2 readers
// ---------------------------------------------------------------------------

/// Includes the insert-/8-then-remove-/16 pattern that breaks unvalidated
/// concurrent walks: a reader that misses the /8 (read too early) *and* the
/// /16 (read too late) would answer "unmapped", a state that never existed.
fn plain_ops() -> Vec<Op> {
    vec![
        Op::Ins(p("10.0.0.0/16"), 1),
        Op::Ins(p("10.0.0.0/8"), 2),
        Op::Del(p("10.0.0.0/16")),
        Op::Ins(p("10.0.0.0/24"), 3),
        Op::Ins(p("10.0.0.0/16"), 4),
        Op::Ins(p("10.0.0.0/8"), 5), // value update, same key
        Op::Del(p("10.0.0.0/24")),
        Op::Ins(p("192.168.0.0/16"), 6),
        Op::Del(p("10.0.0.0/8")),
        Op::Ins(p("2001:db8::/32"), 7),
        Op::Del(p("10.0.0.0/16")),
        Op::Ins(p("0.0.0.0/0"), 8),
    ]
}

fn plain_probes() -> Vec<Addr> {
    vec![
        a("10.0.0.1"),
        a("10.0.1.1"),
        a("10.1.0.1"),
        a("192.168.3.4"),
        a("8.8.8.8"),
        a("2001:db8::5"),
        a("::1"),
    ]
}

fn reader_task(
    store: Arc<ConcurrentLpm<u32>>,
    probes: Arc<Vec<Addr>>,
    expected: Arc<OracleStates>,
    rounds: usize,
) -> impl FnOnce() + Send {
    move || {
        hook_on();
        let mut last_v = 0u64;
        for _ in 0..rounds {
            for (k, &x) in probes.iter().enumerate() {
                let (ans, v) = store.lookup_versioned(x);
                assert_eq!(v & 1, 0, "validated seq must be even");
                assert!(v >= last_v, "seq regressed: {v} after {last_v}");
                last_v = v;
                let j = (v / 2) as usize;
                assert!(j < expected.len(), "seq {v} beyond applied op count");
                let got = ans.map(|(q, val)| (q, *val));
                assert_eq!(got, expected[j][k], "torn read: probe {x} at state {j}");
            }
        }
    }
}

fn plain_scenario(_seed: u64) -> (Box<dyn FnOnce() + Send>, Arc<ConcurrentLpm<u32>>) {
    let ops = Arc::new(plain_ops());
    let probes = Arc::new(plain_probes());
    let expected = Arc::new(oracle_states(&ops, &probes));
    let store = Arc::new(ConcurrentLpm::new());
    let s = Arc::clone(&store);
    let body = Box::new(move || {
        hook_on();
        for _ in 0..2 {
            shuttle::spawn(reader_task(
                Arc::clone(&s),
                Arc::clone(&probes),
                Arc::clone(&expected),
                2,
            ));
        }
        for &op in ops.iter() {
            let mut u = s.update();
            apply(&mut u, op);
        }
    });
    (body, store)
}

fn run_plain(min_distinct: usize) {
    explore("plain", min_distinct, |seed| plain_scenario(seed).0);
    // One quiescent end-state check outside the executor: the store holds
    // exactly the final oracle state, one mutation window per op.
    let ops = plain_ops();
    let probes = plain_probes();
    let expected = oracle_states(&ops, &probes);
    let (body, store) = plain_scenario(0);
    shuttle::run(1, body);
    for (k, &x) in probes.iter().enumerate() {
        assert_eq!(
            store.lookup(x).map(|(q, v)| (q, *v)),
            expected.last().unwrap()[k]
        );
    }
    assert_eq!(store.seq(), 2 * ops.len() as u64);
}

#[test]
fn interleave_plain_smoke() {
    run_plain(1_000);
}

#[test]
#[ignore = "full schedule exploration; run explicitly"]
fn interleave_plain_full() {
    run_plain(10_000);
}

// ---------------------------------------------------------------------------
// Scenario 2: incremental publication — epoch batches under live readers
// ---------------------------------------------------------------------------

/// Four published "epochs" as row sets; the writer applies the delta between
/// consecutive epochs (exactly what `ServePublisher` does per bucket close)
/// and bumps an epoch counter after each batch. Readers assert linearizable
/// answers *and* that an observed epoch is a floor on the observed state.
fn epoch_rows() -> Vec<Vec<(Prefix, u32)>> {
    vec![
        vec![
            (p("10.0.0.0/8"), 1),
            (p("10.1.0.0/16"), 2),
            (p("172.16.0.0/12"), 3),
        ],
        // churn: one value update, one removal, one appearance
        vec![
            (p("10.0.0.0/8"), 10),
            (p("172.16.0.0/12"), 3),
            (p("192.0.2.0/24"), 4),
        ],
        // localized burst under 10/8
        vec![
            (p("10.0.0.0/8"), 10),
            (p("10.2.0.0/16"), 5),
            (p("10.2.3.0/24"), 6),
            (p("192.0.2.0/24"), 4),
        ],
        // withdraw the burst
        vec![(p("10.0.0.0/8"), 11), (p("192.0.2.0/24"), 4)],
    ]
}

/// Flatten epoch targets into an op list (delta per epoch) plus the op index
/// at which each epoch becomes current.
fn epoch_ops(rows: &[Vec<(Prefix, u32)>]) -> (Vec<Op>, Vec<usize>) {
    let mut ops = Vec::new();
    let mut boundaries = vec![0usize]; // epoch 0 = empty store
    let mut cur: Vec<(Prefix, u32)> = Vec::new();
    for target in rows {
        for (q, _) in &cur {
            if !target.iter().any(|(t, _)| t == q) {
                ops.push(Op::Del(*q));
            }
        }
        for &(q, v) in target {
            if cur.iter().find(|(c, _)| *c == q).map(|(_, cv)| *cv) != Some(v) {
                ops.push(Op::Ins(q, v));
            }
        }
        boundaries.push(ops.len());
        cur = target.clone();
    }
    (ops, boundaries)
}

fn epoch_probes() -> Vec<Addr> {
    vec![
        a("10.0.0.1"),
        a("10.1.2.3"),
        a("10.2.3.4"),
        a("172.16.5.5"),
        a("192.0.2.9"),
        a("198.51.100.1"),
    ]
}

fn run_publication(min_distinct: usize) {
    let rows = epoch_rows();
    let (ops, boundaries) = epoch_ops(&rows);
    let probes = epoch_probes();
    let expected = oracle_states(&ops, &probes);
    explore("publication", min_distinct, |_seed| {
        let rows = rows.clone();
        let ops = ops.clone();
        let boundaries = boundaries.clone();
        let probes = Arc::new(probes.clone());
        let expected = Arc::new(expected.clone());
        let store = Arc::new(ConcurrentLpm::new());
        let epoch = Arc::new(AtomicU64::new(0));
        Box::new(move || {
            hook_on();
            for _ in 0..2 {
                let (s, pr, ex, ep, bd) = (
                    Arc::clone(&store),
                    Arc::clone(&probes),
                    Arc::clone(&expected),
                    Arc::clone(&epoch),
                    boundaries.clone(),
                );
                shuttle::spawn(move || {
                    hook_on();
                    let mut last_v = 0u64;
                    let mut last_e = 0u64;
                    for _ in 0..2 {
                        for (k, &x) in pr.iter().enumerate() {
                            let e1 = ep.load(Ordering::SeqCst);
                            let (ans, v) = s.lookup_versioned(x);
                            assert_eq!(v & 1, 0);
                            assert!(v >= last_v, "seq regressed");
                            last_v = v;
                            assert!(e1 >= last_e, "epoch regressed");
                            last_e = e1;
                            let j = (v / 2) as usize;
                            // Epoch e published ⇒ at least boundaries[e] ops
                            // applied before our lookup began.
                            assert!(
                                j >= bd[e1 as usize],
                                "stale past published epoch {e1}: state {j}"
                            );
                            let got = ans.map(|(q, val)| (q, *val));
                            assert_eq!(got, ex[j][k], "torn read at state {j}");
                        }
                    }
                });
            }
            for e in 0..rows.len() {
                let (from, to) = (boundaries[e], boundaries[e + 1]);
                let mut u = store.update();
                for &op in &ops[from..to] {
                    apply(&mut u, op);
                }
                drop(u);
                epoch.fetch_add(1, Ordering::SeqCst);
            }
            // Published end state is bit-identical to the last epoch's rows.
            let mut got = store.rows();
            got.sort_by_key(|(q, _)| *q);
            let mut want = rows.last().unwrap().clone();
            want.sort_by_key(|(q, _)| *q);
            assert_eq!(got, want, "final epoch not identical to target table");
        })
    });
}

#[test]
fn interleave_publication_smoke() {
    run_publication(1_000);
}

#[test]
#[ignore = "full schedule exploration; run explicitly"]
fn interleave_publication_full() {
    run_publication(10_000);
}
