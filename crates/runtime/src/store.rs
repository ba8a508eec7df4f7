//! Variable buffers for one run.

use std::collections::HashMap;

use hector_ir::VarId;
use hector_tensor::Tensor;

/// Per-run variable storage, keyed by [`VarId`].
#[derive(Clone, Debug, Default)]
pub struct VarStore {
    bufs: HashMap<VarId, Tensor>,
}

impl VarStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> VarStore {
        VarStore::default()
    }

    /// Inserts a tensor for `v`, replacing any previous one.
    pub fn insert(&mut self, v: VarId, t: Tensor) {
        self.bufs.insert(v, t);
    }

    /// Whether `v` has a buffer.
    #[must_use]
    pub fn contains(&self, v: VarId) -> bool {
        self.bufs.contains_key(&v)
    }

    /// Tensor lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no buffer (an executor ordering bug).
    #[must_use]
    pub fn get(&self, v: VarId) -> &Tensor {
        self.bufs
            .get(&v)
            .unwrap_or_else(|| panic!("no buffer for {v:?}"))
    }

    /// Optional tensor lookup.
    #[must_use]
    pub fn try_get(&self, v: VarId) -> Option<&Tensor> {
        self.bufs.get(&v)
    }

    /// Mutable tensor lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no buffer.
    pub fn get_mut(&mut self, v: VarId) -> &mut Tensor {
        self.bufs
            .get_mut(&v)
            .unwrap_or_else(|| panic!("no buffer for {v:?}"))
    }

    /// Removes a buffer (e.g. to hand an output to the caller).
    pub fn remove(&mut self, v: VarId) -> Option<Tensor> {
        self.bufs.remove(&v)
    }

    /// Total bytes held across all buffers.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.bufs.values().map(Tensor::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut s = VarStore::new();
        let v = VarId(0);
        s.insert(v, Tensor::zeros(&[2, 3]));
        assert!(s.contains(v));
        assert_eq!(s.get(v).shape(), &[2, 3]);
        assert_eq!(s.byte_size(), 24);
    }

    #[test]
    #[should_panic(expected = "no buffer")]
    fn missing_buffer_panics() {
        let s = VarStore::new();
        let _ = s.get(VarId(9));
    }
}
