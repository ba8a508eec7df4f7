//! The unified, fallible error surface of the public runtime API.
//!
//! Historically the handle API panicked on misuse (wrong graph, bad
//! shapes, unknown backend). A long-lived server cannot sit on top of a
//! panicking substrate, so the public entry points —
//! [`EngineBuilder::build`](crate::EngineBuilder::build),
//! [`Engine::bind`](crate::Engine::bind),
//! [`Engine::forward`](crate::Engine::forward),
//! [`Trainer::step`](crate::Trainer::step) and
//! [`Trainer::train_batch`](crate::Trainer::train_batch) — return
//! `Result<_, HectorError>` instead. *Internal invariant* checks (state
//! the library itself controls) remain panics: a broken invariant is a
//! bug in Hector, not a caller error.

use std::fmt;

use hector_device::OomError;

/// Everything the public runtime API can report as a recoverable error.
///
/// The enum is `#[non_exhaustive]`: new variants may appear in later
/// versions, so downstream `match`es need a catch-all arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum HectorError {
    /// The graph (or absence of one) is incompatible with the requested
    /// operation: binding an empty graph, running before
    /// [`Engine::bind`](crate::Engine::bind), or training on a subgraph
    /// whose node/edge type counts differ from the bound graph's.
    GraphMismatch {
        /// What was incompatible.
        detail: String,
    },
    /// A tensor (input binding, label vector) has the wrong shape for
    /// the program and graph it is being run against.
    ShapeMismatch {
        /// Which tensor mismatched (input name, "labels", …).
        what: String,
        /// The shape the program/graph requires.
        expected: String,
        /// The shape that was provided.
        got: String,
    },
    /// The model source cannot be compiled (e.g. it declares no
    /// outputs).
    CompileError {
        /// What the compiler rejected.
        detail: String,
    },
    /// A builder or engine was configured inconsistently (classes
    /// beyond the output width, zero threads, a missing input binding,
    /// an untrained module asked to train, …).
    InvalidConfig {
        /// What was invalid.
        detail: String,
    },
    /// The run exceeded simulated device memory (wraps
    /// [`hector_device::OomError`]; these are the paper's legitimate
    /// OOM events, recorded rather than panicked).
    Oom(OomError),
    /// A streaming delta batch does not fit the graph it was applied to
    /// (an out-of-range node or relation, an edge removal that matches
    /// no remaining edge, an insert touching a removed node). Rejected
    /// before anything changes.
    InvalidDelta {
        /// What was invalid.
        detail: String,
    },
}

impl HectorError {
    /// Short stable tag naming the variant ("graph_mismatch",
    /// "shape_mismatch", …) — used by serving front ends to classify
    /// failures without string-matching `Display` output.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            HectorError::GraphMismatch { .. } => "graph_mismatch",
            HectorError::ShapeMismatch { .. } => "shape_mismatch",
            HectorError::CompileError { .. } => "compile_error",
            HectorError::InvalidConfig { .. } => "invalid_config",
            HectorError::Oom(_) => "oom",
            HectorError::InvalidDelta { .. } => "invalid_delta",
        }
    }
}

impl fmt::Display for HectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HectorError::GraphMismatch { detail } => {
                write!(f, "graph mismatch: {detail}")
            }
            HectorError::ShapeMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "shape mismatch for {what}: expected {expected}, got {got}"
                )
            }
            HectorError::CompileError { detail } => {
                write!(f, "compile error: {detail}")
            }
            HectorError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            HectorError::Oom(e) => write!(f, "{e}"),
            HectorError::InvalidDelta { detail } => write!(f, "invalid delta: {detail}"),
        }
    }
}

impl std::error::Error for HectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HectorError::Oom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OomError> for HectorError {
    fn from(e: OomError) -> HectorError {
        HectorError::Oom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HectorError::ShapeMismatch {
            what: "input 'h'".into(),
            expected: "[6, 4]".into(),
            got: "[6, 8]".into(),
        };
        let s = e.to_string();
        assert!(s.contains("input 'h'") && s.contains("[6, 4]") && s.contains("[6, 8]"));
        assert_eq!(e.kind(), "shape_mismatch");
    }

    #[test]
    fn oom_converts_and_chains_source() {
        let oom = OomError {
            requested: 128,
            in_use: 64,
            capacity: 100,
            label: "weights".into(),
        };
        let e: HectorError = oom.clone().into();
        assert_eq!(e, HectorError::Oom(oom));
        assert_eq!(e.kind(), "oom");
        let src = std::error::Error::source(&e).expect("oom chains its source");
        assert!(src.to_string().contains("weights"));
    }
}
