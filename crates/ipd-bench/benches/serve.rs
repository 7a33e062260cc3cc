//! Serving-layer read path: single-reader lookup throughput against a
//! 131k-prefix [`LiveStore`](ipd_serve::LiveStore) — the map the server
//! serves — behind the same [`EpochSwap`] its connections read through
//! (the acceptance floor is 1M lookups/s on one thread), scaling to 4
//! reader threads, the cost of the epoch check itself, and the wire codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipd_bench::{lookup_keys, serve_store};
use ipd_serve::proto::{decode_request, encode_request, Request};
use ipd_serve::EpochSwap;

const STORE_PREFIXES: usize = 131_072;
const KEYS: usize = 16_384;

fn bench_lookup(c: &mut Criterion) {
    let swap = EpochSwap::new(serve_store(STORE_PREFIXES));
    let keys = lookup_keys(KEYS);

    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(keys.len() as u64));
    // The full read path a server connection runs per request: one epoch
    // check, then store lookups.
    g.bench_function("lookup_131k_1_thread", |b| {
        let mut reader = swap.reader();
        b.iter(|| {
            let current = reader.current();
            let mut hits = 0usize;
            for &k in &keys {
                hits += current.value.lookup(k).is_some() as usize;
            }
            hits
        })
    });
    // Epoch check per lookup (a server answering single-key requests).
    g.bench_function("lookup_131k_epoch_check_per_key", |b| {
        let mut reader = swap.reader();
        b.iter(|| {
            let mut hits = 0usize;
            for &k in &keys {
                hits += reader.current().value.lookup(k).is_some() as usize;
            }
            hits
        })
    });

    // Reader scaling over one shared swap: wait-free readers should scale
    // near linearly from 1 to 4 threads. Both variants use the identical
    // spawn-and-chunk harness so the comparison isolates contention, not
    // thread start-up.
    const CHUNK: usize = 65_536;
    let shared_keys = std::sync::Arc::new(keys.clone());
    for threads in [1usize, 4] {
        g.throughput(Throughput::Elements((threads * CHUNK) as u64));
        g.bench_function(format!("lookup_131k_{threads}_threads_spawned"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let swap = swap.clone();
                        let keys = std::sync::Arc::clone(&shared_keys);
                        std::thread::spawn(move || {
                            let mut reader = swap.reader();
                            let current = reader.current_arc();
                            let mut hits = 0usize;
                            let offset = t * (keys.len() / 4);
                            for i in 0..CHUNK {
                                let k = keys[(offset + i) % keys.len()];
                                hits += current.value.lookup(k).is_some() as usize;
                            }
                            hits
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

fn bench_proto(c: &mut Criterion) {
    let keys = lookup_keys(1_024);
    let batch = encode_request(&Request::Batch(keys));
    let single = encode_request(&Request::Lookup(lookup_keys(1)[0]));

    let mut g = c.benchmark_group("serve_proto");
    g.throughput(Throughput::Bytes(batch.len() as u64));
    g.bench_function("decode_batch_1024", |b| {
        b.iter(|| decode_request(&batch).unwrap())
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("decode_lookup", |b| {
        b.iter(|| decode_request(&single).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_proto);
criterion_main!(benches);
