//! Device-memory accounting with out-of-memory failures.

use std::fmt;

/// Handle to a live device allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AllocId(usize);

/// Error returned when an allocation would exceed device capacity.
///
/// These are the OOM events of the paper's Fig. 8 / Table 4; they are not
/// panics because systems under test (baselines, unoptimized Hector)
/// legitimately hit them and the harness records the event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes already in use.
    pub in_use: usize,
    /// Device capacity.
    pub capacity: usize,
    /// Label of the failing allocation (tensor name).
    pub label: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory allocating '{}': requested {} B with {} B in use of {} B capacity",
            self.label, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// A simple counting allocator over the simulated device memory.
///
/// Tracks current and peak usage; does not model fragmentation (real
/// allocators like PyTorch's caching allocator would only make OOM happen
/// *earlier*, so this is a conservative reproduction of the paper's OOM
/// events).
/// Live allocations store only their byte size: labels exist solely for
/// OOM diagnostics, so they are borrowed at the failing call instead of
/// being owned per allocation — the success path performs no heap
/// allocation of its own, which is what lets a warm run charge device
/// memory without touching the host allocator (see `tests/run_alloc.rs`).
#[derive(Clone, Debug)]
pub struct MemoryPool {
    capacity: usize,
    in_use: usize,
    peak: usize,
    live: Vec<Option<usize>>,
}

impl MemoryPool {
    /// Creates a pool with the given capacity in bytes.
    #[must_use]
    pub fn new(capacity: usize) -> MemoryPool {
        MemoryPool {
            capacity,
            in_use: 0,
            peak: 0,
            live: Vec::new(),
        }
    }

    /// Attempts to allocate `bytes`, labelled for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation would exceed capacity.
    pub fn alloc(&mut self, bytes: usize, label: &str) -> Result<AllocId, OomError> {
        if self.in_use + bytes > self.capacity {
            return Err(OomError {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
                label: label.to_string(),
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.live.push(Some(bytes));
        Ok(AllocId(self.live.len() - 1))
    }

    /// Frees a previous allocation. Freeing twice is a no-op.
    pub fn free(&mut self, id: AllocId) {
        if let Some(slot) = self.live.get_mut(id.0) {
            if let Some(bytes) = slot.take() {
                self.in_use -= bytes;
            }
        }
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// High-water mark of usage, the "memory footprint" of Fig. 10.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Pool capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frees everything and resets the peak.
    pub fn reset(&mut self) {
        self.in_use = 0;
        self.peak = 0;
        self.live.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut p = MemoryPool::new(100);
        let a = p.alloc(60, "a").unwrap();
        assert_eq!(p.in_use(), 60);
        let b = p.alloc(40, "b").unwrap();
        assert_eq!(p.in_use(), 100);
        assert_eq!(p.peak(), 100);
        p.free(a);
        assert_eq!(p.in_use(), 40);
        p.free(b);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.peak(), 100, "peak persists after frees");
    }

    #[test]
    fn oom_at_capacity() {
        let mut p = MemoryPool::new(100);
        let _a = p.alloc(80, "big").unwrap();
        let err = p.alloc(30, "overflow").unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.capacity, 100);
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn double_free_is_noop() {
        let mut p = MemoryPool::new(100);
        let a = p.alloc(50, "a").unwrap();
        p.free(a);
        p.free(a);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn live_count_and_reset() {
        let mut p = MemoryPool::new(100);
        let _a = p.alloc(10, "a").unwrap();
        let b = p.alloc(10, "b").unwrap();
        p.free(b);
        assert_eq!(p.live.iter().flatten().count(), 1);
        assert_eq!(p.in_use(), 10);
        p.reset();
        assert_eq!(p.live.iter().flatten().count(), 0);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.peak(), 0);
    }

    #[test]
    fn zero_byte_alloc_always_succeeds() {
        let mut p = MemoryPool::new(0);
        assert!(p.alloc(0, "empty").is_ok());
    }
}
