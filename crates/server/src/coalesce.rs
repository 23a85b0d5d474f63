//! Request coalescing: one measurement serves every same-config waiter.
//!
//! When several connections ask for the same canonical query while none
//! has finished yet, only the first (the *leader*) runs the measurement;
//! the rest block on a condvar and receive the leader's result. This is
//! correct — not just fast — because of the workspace determinism
//! contract: an answer is a pure function of the canonical config (trial
//! `t` reads seed `seed + t` and nothing else, for every engine and
//! thread count), so the leader's bytes are exactly the bytes every
//! waiter would have computed. Coalescing therefore changes wall-clock
//! and nothing else, like `--threads` does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One in-flight computation: the state the leader settles and the condvar
/// the waiters sleep on.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
    /// How many callers have committed to waiting on this flight;
    /// incremented under the registry lock, so it is exact.
    waiters: AtomicU64,
}

enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader's value, for every waiter to clone.
    Done(V),
    /// The leader's `compute` unwound: waiters retry, one of them leading.
    Abandoned,
}

/// Held by the leader while it computes. Dropping it — on return or while
/// `compute` unwinds — wakes the waiters and unregisters the flight, so a
/// panicking computation can never strand its key.
struct Leading<'a, V> {
    inflight: &'a Mutex<HashMap<String, Arc<Flight<V>>>>,
    key: &'a str,
    flight: Arc<Flight<V>>,
}

impl<V> Drop for Leading<'_, V> {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.flight.state);
            if matches!(*state, FlightState::Pending) {
                *state = FlightState::Abandoned;
            }
            self.flight.done.notify_all();
        }
        lock(self.inflight).remove(self.key);
    }
}

/// Locks `mutex`, tolerating poison: every critical section here leaves its
/// data consistent, so a panic elsewhere must not wedge the coalescer.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a coalesced call obtained its value (for `/metrics` and logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This call ran the computation.
    Leader,
    /// This call waited for a concurrent leader's result.
    Waiter,
}

/// Coalesces concurrent computations by key.
pub struct Coalescer<V> {
    inflight: Mutex<HashMap<String, Arc<Flight<V>>>>,
}

impl<V: Clone> Coalescer<V> {
    /// Creates an empty coalescer.
    pub fn new() -> Self {
        Coalescer {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Returns `compute()`'s value for `key`, running `compute` at most
    /// once across all concurrent callers with the same key: the first
    /// caller becomes the [`Role::Leader`] and runs it, every overlapping
    /// caller blocks until the leader finishes and receives a clone.
    ///
    /// The flight is removed before the leader returns, so a *later*
    /// (non-overlapping) call with the same key computes again — callers
    /// that want cross-request reuse put a cache in front (the service
    /// checks its response cache first, so a post-flight call is a cache
    /// hit instead).
    ///
    /// If the leader's `compute` panics, the panic propagates to the
    /// leader's caller only: the flight is unregistered on the way out and
    /// its waiters retry, so one of them leads a fresh computation.
    pub fn run<F: FnOnce() -> V>(&self, key: &str, compute: F) -> (V, Role) {
        let flight = loop {
            let flight = {
                let mut inflight = lock(&self.inflight);
                match inflight.get(key) {
                    // Someone is already computing this key: wait for them.
                    Some(flight) => {
                        let flight = Arc::clone(flight);
                        flight.waiters.fetch_add(1, Ordering::SeqCst);
                        flight
                    }
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                            waiters: AtomicU64::new(0),
                        });
                        inflight.insert(key.to_string(), Arc::clone(&flight));
                        break flight;
                    }
                }
            };
            let mut state = lock(&flight.state);
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightState::Done(value) => return (value.clone(), Role::Waiter),
                    FlightState::Abandoned => break,
                }
            }
        };
        let leading = Leading {
            inflight: &self.inflight,
            key,
            flight,
        };
        let value = compute();
        // Publish before unregistering (in `Leading::drop`) so a waiter
        // that grabbed the flight just before removal still sees the value;
        // a brand-new caller after removal simply leads its own flight.
        *lock(&leading.flight.state) = FlightState::Done(value.clone());
        drop(leading);
        (value, Role::Leader)
    }

    /// How many callers are currently committed to waiting on `key`'s
    /// in-flight computation (0 when nothing is in flight). An exact
    /// observability gauge: the count is incremented under the registry
    /// lock at the moment a caller commits to the waiter branch.
    pub fn waiters(&self, key: &str) -> u64 {
        lock(&self.inflight)
            .get(key)
            .map_or(0, |flight| flight.waiters.load(Ordering::SeqCst))
    }
}

impl<V: Clone> Default for Coalescer<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_calls_each_lead() {
        let coalescer: Coalescer<u64> = Coalescer::new();
        let (a, role_a) = coalescer.run("k", || 7);
        let (b, role_b) = coalescer.run("k", || 8);
        assert_eq!((a, role_a), (7, Role::Leader));
        assert_eq!((b, role_b), (8, Role::Leader));
    }

    #[test]
    fn concurrent_same_key_calls_compute_once() {
        let coalescer: Arc<Coalescer<u64>> = Arc::new(Coalescer::new());
        let computed = Arc::new(AtomicU64::new(0));
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let leader = {
            let coalescer = Arc::clone(&coalescer);
            let computed = Arc::clone(&computed);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                coalescer.run("k", || {
                    entered.wait(); // flight is registered; let the test spawn waiters
                    release.wait(); // hold until every waiter has been launched
                    computed.fetch_add(1, Ordering::SeqCst);
                    42u64
                })
            })
        };
        // The leader is inside `compute` from here on, so its flight stays
        // registered: every call spawned below must take the waiter branch
        // (their compute closure proves it by panicking if ever invoked).
        entered.wait();
        let waiters: Vec<_> = (0..7)
            .map(|_| {
                let coalescer = Arc::clone(&coalescer);
                std::thread::spawn(move || {
                    coalescer.run("k", || panic!("a coalesced waiter must never compute"))
                })
            })
            .collect();
        // Release the leader only after all seven have *committed* to the
        // waiter branch (the gauge increments under the registry lock), so
        // no late spawn can miss the flight and lead its own.
        while coalescer.waiters("k") < 7 {
            std::thread::yield_now();
        }
        release.wait();
        let (value, role) = leader.join().unwrap();
        assert_eq!((value, role), (42, Role::Leader));
        for waiter in waiters {
            let (value, role) = waiter.join().unwrap();
            assert_eq!((value, role), (42, Role::Waiter));
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
    }

    #[test]
    fn panicking_leader_releases_its_waiters_and_its_key() {
        let coalescer: Arc<Coalescer<u64>> = Arc::new(Coalescer::new());
        let computed = Arc::new(AtomicU64::new(0));
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let leader = {
            let coalescer = Arc::clone(&coalescer);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                coalescer.run("k", || -> u64 {
                    entered.wait();
                    release.wait();
                    panic!("leader compute fails");
                })
            })
        };
        entered.wait();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let coalescer = Arc::clone(&coalescer);
                let computed = Arc::clone(&computed);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let outcome = coalescer.run("k", || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        42
                    });
                    done_tx.send(outcome).unwrap();
                })
            })
            .collect();
        while coalescer.waiters("k") < 3 {
            std::thread::yield_now();
        }
        release.wait();
        assert!(
            leader.join().is_err(),
            "the leader's panic reaches its caller"
        );
        // Every committed waiter finishes (a hang fails here, not forever),
        // and at least one of them re-ran the computation as a leader.
        let outcomes: Vec<(u64, Role)> = (0..3)
            .map(|_| {
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("a waiter of a panicked leader hung")
            })
            .collect();
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert!(outcomes.iter().all(|(value, _)| *value == 42));
        assert!(outcomes.iter().any(|(_, role)| *role == Role::Leader));
        let recomputed = computed.load(Ordering::SeqCst);
        assert!((1..=3).contains(&recomputed), "{recomputed} recomputations");
        // The key is free again: the next call computes afresh.
        assert_eq!(coalescer.waiters("k"), 0);
        assert_eq!(coalescer.run("k", || 9), (9, Role::Leader));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let coalescer: Coalescer<&'static str> = Coalescer::new();
        let (a, _) = coalescer.run("x", || "ax");
        let (b, _) = coalescer.run("y", || "by");
        assert_eq!((a, b), ("ax", "by"));
    }
}
