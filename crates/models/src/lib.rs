//! RGNN model definitions for the Hector framework.
//!
//! The three models of the paper's evaluation, each written once in the
//! Hector builder DSL (the "51 lines of code" input side of the
//! programming-effort claim):
//!
//! * [`rgcn`] — relational graph convolutional network
//!   (Schlichtkrull et al.), Eq. 1 of the paper;
//! * [`rgat`] — relational graph attention network (Busbridge et al.),
//!   the single-headed attention of Listing 1 / Fig. 2;
//! * [`hgt`] — heterogeneous graph transformer (Hu et al.), Fig. 2's
//!   key/query/message formulation with per-node-type and per-edge-type
//!   projections.
//!
//! Each module holds one layer body: its `source` calls it once, and a
//! [`stacked`] network is that layer looped. The dense reference
//! implementations the integration suites check the compiled kernels
//! against live in [`mod@reference`].

#![warn(missing_docs)]

pub mod hgt;
pub mod reference;
pub mod rgat;
pub mod rgcn;
pub mod stacked;

use hector_ir::builder::ModelSource;

/// The three evaluated models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Relational graph convolutional network.
    Rgcn,
    /// Relational graph attention network (single head).
    Rgat,
    /// Heterogeneous graph transformer (single head).
    Hgt,
}

impl ModelKind {
    /// All models, in the paper's reporting order.
    #[must_use]
    pub fn all() -> [ModelKind; 3] {
        [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt]
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Rgcn => "RGCN",
            ModelKind::Rgat => "RGAT",
            ModelKind::Hgt => "HGT",
        }
    }
}

/// Builds the model source for `kind` with the given dimensions
/// (the paper uses `in_dim = out_dim = 64`, one head, §4.1).
#[must_use]
pub fn source(kind: ModelKind, in_dim: usize, out_dim: usize) -> ModelSource {
    match kind {
        ModelKind::Rgcn => rgcn::source(in_dim, out_dim),
        ModelKind::Rgat => rgat::source(in_dim, out_dim),
        ModelKind::Hgt => hgt::source(in_dim, out_dim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_and_validate() {
        for kind in ModelKind::all() {
            let src = source(kind, 64, 64);
            src.program.validate();
            assert!(!src.program.ops.is_empty());
        }
    }

    #[test]
    fn total_lines_matches_papers_order_of_magnitude() {
        let lines: usize = ModelKind::all()
            .iter()
            .map(|&k| source(k, 64, 64).lines)
            .sum();
        assert!(
            (30..=60).contains(&lines),
            "expected ~51 lines for the three models, got {lines}"
        );
    }

    #[test]
    fn names() {
        assert_eq!(ModelKind::Rgcn.name(), "RGCN");
        assert_eq!(ModelKind::all().len(), 3);
    }
}
