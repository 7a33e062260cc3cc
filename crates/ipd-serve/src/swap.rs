//! Epoch-swapped publication: one writer replaces an immutable value, many
//! readers observe it with (steady-state) a single atomic load per access.
//!
//! The shape is a version counter plus a mutex-guarded slot holding an
//! `Arc` of the current [`Versioned`] value:
//!
//! * **Publish** (rare — once per closed bucket): build the new value off to
//!   the side, store it into the slot under the mutex, then bump the epoch
//!   counter with `Release` ordering. The mutex is held for two pointer
//!   writes, never during value construction.
//! * **Read** (hot — every lookup): each reader thread owns a [`Reader`]
//!   caching the `Arc` it last saw. [`Reader::current`] loads the epoch with
//!   `Acquire`; if it matches the cache, the cached value is returned with
//!   no further synchronization — the lookup path takes no lock and writes
//!   nothing shared. Only on an epoch transition does the reader take the
//!   slot mutex for one `Arc::clone`.
//!
//! The swap hands out only shared references to reference-counted values,
//! so a reader either holds the old value or the new one, never a mix, and
//! an in-flight lookup keeps its value alive for exactly as long as the
//! lookup borrows it. A value with interior mutability — the served
//! `LiveStore`, updated in place between rotations — brings its own
//! no-torn-read guarantee (`ConcurrentLpm`'s seqlock). Staleness is bounded
//! by one access: the epoch a reader serves from is at least the global
//! epoch at the moment `current` loaded the counter.
//!
//! Why not a lock-free `AtomicPtr` swap or a chain of `OnceLock` nodes?
//! The former needs unsafe reclamation; the latter lets one idle reader pin
//! every intermediate epoch's store through the chain links. The short
//! mutex on the *transition* path costs nothing measurable at one publish
//! per bucket and keeps exactly two stores alive in the worst case.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A value stamped with the epoch that published it.
#[derive(Debug)]
pub struct Versioned<T> {
    /// Publication epoch: 0 for the initial value, +1 per publish.
    pub epoch: u64,
    /// The published value.
    pub value: T,
}

#[derive(Debug)]
struct Shared<T> {
    epoch: AtomicU64,
    slot: Mutex<Arc<Versioned<T>>>,
}

/// Cloneable handle to an epoch-swapped value: any clone may publish, any
/// clone can mint per-thread [`Reader`]s.
#[derive(Debug)]
pub struct EpochSwap<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for EpochSwap<T> {
    fn clone(&self) -> Self {
        EpochSwap {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> EpochSwap<T> {
    /// A swap holding `initial` at epoch 0.
    pub fn new(initial: T) -> Self {
        EpochSwap {
            shared: Arc::new(Shared {
                epoch: AtomicU64::new(0),
                slot: Mutex::new(Arc::new(Versioned {
                    epoch: 0,
                    value: initial,
                })),
            }),
        }
    }

    /// Publish a new value, returning its epoch. Readers converge on it at
    /// their next [`Reader::current`] call.
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = self.shared.slot.lock().expect("swap slot poisoned");
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Versioned { epoch, value });
        // Release pairs with the Acquire in `current`/`epoch`: a reader that
        // sees the new counter also sees the new slot contents.
        self.shared.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The current value (slow path: takes the slot mutex). Use a
    /// [`Reader`] on hot paths.
    pub fn load(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.shared.slot.lock().expect("swap slot poisoned"))
    }

    /// A per-thread read handle caching the current value.
    pub fn reader(&self) -> Reader<T> {
        Reader {
            shared: Arc::clone(&self.shared),
            cached: self.load(),
        }
    }
}

/// A per-thread read handle. Not `Clone` on purpose: each reader thread
/// should mint its own from [`EpochSwap::reader`] so caches are not shared.
#[derive(Debug)]
pub struct Reader<T> {
    shared: Arc<Shared<T>>,
    cached: Arc<Versioned<T>>,
}

impl<T> Reader<T> {
    /// The freshest published value: one `Acquire` load when the epoch is
    /// unchanged, a short mutex-guarded refresh when it advanced. The
    /// returned epoch is never older than the global epoch observed at
    /// entry.
    #[inline]
    pub fn current(&mut self) -> &Versioned<T> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.cached.epoch {
            self.cached = Arc::clone(&self.shared.slot.lock().expect("swap slot poisoned"));
        }
        &self.cached
    }

    /// Like [`Reader::current`] but handing out the `Arc` itself, for
    /// callers that need the snapshot to outlive the borrow.
    pub fn current_arc(&mut self) -> Arc<Versioned<T>> {
        self.current();
        Arc::clone(&self.cached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_is_epoch_zero() {
        let swap = EpochSwap::new(41);
        assert_eq!(swap.epoch(), 0);
        let mut r = swap.reader();
        let v = r.current();
        assert_eq!((v.epoch, v.value), (0, 41));
    }

    #[test]
    fn publish_advances_epoch_and_readers_converge() {
        let swap = EpochSwap::new(0u64);
        let mut r = swap.reader();
        assert_eq!(swap.publish(10), 1);
        assert_eq!(swap.publish(20), 2);
        assert_eq!(swap.epoch(), 2);
        let v = r.current();
        assert_eq!((v.epoch, v.value), (2, 20));
    }

    #[test]
    fn reader_epoch_never_goes_backwards() {
        let swap = EpochSwap::new(0u64);
        let publisher = swap.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..=10_000u64 {
                publisher.publish(i);
            }
        });
        let mut r = swap.reader();
        let mut last = 0;
        loop {
            let floor = swap.epoch();
            let v = r.current();
            assert!(v.epoch >= last, "epoch went backwards");
            assert!(v.epoch >= floor, "stale beyond the observed floor");
            assert_eq!(v.value, v.epoch, "value and stamp out of step (torn)");
            last = v.epoch;
            if last == 10_000 {
                break;
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn at_most_two_stores_alive() {
        let swap = EpochSwap::new(vec![0u8; 16]);
        let mut r = swap.reader();
        let _ = r.current(); // reader pins epoch 0
        swap.publish(vec![1u8; 16]);
        swap.publish(vec![2u8; 16]);
        // The slot holds epoch 2; the reader still pins epoch 0; epoch 1 is
        // freed the moment epoch 2 replaced it. Refreshing drops epoch 0.
        let before = Arc::strong_count(&swap.load());
        let _ = r.current();
        let after = Arc::strong_count(&swap.load());
        assert!(after >= before, "refresh must take the newest store");
    }
}
