//! Bounded single-producer prefetch pipeline.
//!
//! [`ThreadPool::for_each_chunk`](crate::ThreadPool::for_each_chunk) is
//! *structured*: it blocks until every chunk finishes, so it cannot keep
//! work in flight across the caller's returns — exactly what a mini-batch
//! prefetcher needs (sample batch `k+1` on a worker while the caller
//! trains on batch `k`). [`Prefetcher`] fills that gap with one detached
//! producer thread and a bounded channel.
//!
//! Determinism note: the producer calls `make(0), make(1), …` in order
//! and the channel preserves that order, so the consumer observes the
//! exact sequence a synchronous `(0..n).map(make)` would produce. With a
//! `make` that is pure per index — the sampler's contract — pipelining
//! changes *when* batches are produced, never *what* they contain.

use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::JoinHandle;

/// Messages travel producer → consumer; a drop of the consumer side
/// closes the channel, which the producer observes as a send error and
/// exits on.
enum Item<T> {
    Value(T),
    Panic(String),
}

/// A bounded background producer: runs `make(k)` for `k = 0, 1, …` on a
/// dedicated thread, up to `depth` items ahead of the consumer, until
/// `make` returns `None` or the consumer is dropped.
///
/// Items arrive strictly in index order. Dropping the prefetcher wakes
/// and joins the producer, so no thread outlives it.
#[derive(Debug)]
pub struct Prefetcher<T: Send + 'static> {
    rx: Option<Receiver<Item<T>>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> Prefetcher<T> {
    /// Spawns the producer. `depth` bounds how many finished items may
    /// wait unconsumed (clamped to ≥ 1); `make(k)` produces item `k` and
    /// signals exhaustion with `None`.
    pub fn new<F>(depth: usize, mut make: F) -> Prefetcher<T>
    where
        F: FnMut(usize) -> Option<T> + Send + 'static,
    {
        let (tx, rx): (SyncSender<Item<T>>, _) = std::sync::mpsc::sync_channel(depth.max(1));
        let handle = std::thread::Builder::new()
            .name("hector-prefetch".into())
            .spawn(move || {
                for k in 0.. {
                    let item =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| make(k))) {
                            Ok(Some(v)) => Item::Value(v),
                            Ok(None) => return,
                            Err(p) => {
                                let msg = panic_message(&p);
                                // Forward the panic, then stop producing; the
                                // consumer re-raises it on next().
                                let _ = tx.send(Item::Panic(msg));
                                return;
                            }
                        };
                    if tx.send(item).is_err() {
                        return; // consumer dropped — stop early
                    }
                }
            })
            .expect("spawn prefetch thread");
        Prefetcher {
            rx: Some(rx),
            handle: Some(handle),
        }
    }
}

impl<T: Send + 'static> Iterator for Prefetcher<T> {
    type Item = T;

    /// Blocks for the next item; `None` once the producer is exhausted.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that occurred inside `make` on the producer.
    fn next(&mut self) -> Option<T> {
        match self.rx.as_ref()?.recv() {
            Ok(Item::Value(v)) => Some(v),
            Ok(Item::Panic(msg)) => panic!("prefetch producer panicked: {msg}"),
            Err(_) => None,
        }
    }
}

impl<T: Send + 'static> Drop for Prefetcher<T> {
    fn drop(&mut self) {
        // Closing the receiver fails the producer's next send, waking it
        // if it is parked on a full channel.
        drop(self.rx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_items_in_order_and_terminates() {
        let mut p = Prefetcher::new(2, |k| if k < 5 { Some(k * k) } else { None });
        let got: Vec<usize> = std::iter::from_fn(|| p.next()).collect();
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
        assert!(p.next().is_none(), "stays exhausted");
    }

    #[test]
    fn early_drop_unblocks_producer() {
        // depth 1, 1000 items: the producer must park on the full
        // channel; dropping after two items has to wake and join it.
        let mut p = Prefetcher::new(1, |k| if k < 1000 { Some(vec![k; 64]) } else { None });
        assert_eq!(p.next().unwrap()[0], 0);
        assert_eq!(p.next().unwrap()[0], 1);
        drop(p); // must not hang
    }

    #[test]
    fn producer_panic_is_reraised_on_consumer() {
        let mut p = Prefetcher::new(2, |k| {
            assert!(k < 2, "boom at {k}");
            Some(k)
        });
        assert_eq!(p.next(), Some(0));
        assert_eq!(p.next(), Some(1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.next()));
        assert!(err.is_err(), "panic must propagate");
    }

    #[test]
    fn pipeline_overlaps_production_with_consumption() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let produced = Arc::new(AtomicUsize::new(0));
        let pc = Arc::clone(&produced);
        let mut p = Prefetcher::new(3, move |k| {
            if k < 6 {
                pc.fetch_add(1, Ordering::SeqCst);
                Some(k)
            } else {
                None
            }
        });
        // Consume the first item, then give the producer time to run
        // ahead: with depth 3 it should produce beyond item 0 while the
        // consumer sits idle.
        assert_eq!(p.next(), Some(0));
        for _ in 0..200 {
            if produced.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            produced.load(Ordering::SeqCst) >= 3,
            "producer failed to run ahead of the consumer"
        );
        let rest: Vec<usize> = std::iter::from_fn(|| p.next()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, 5]);
    }
}
