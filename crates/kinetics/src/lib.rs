//! Enzyme-kinetics toolkit shared by the metabolic models in this workspace.
//!
//! The crate provides the vocabulary the C3 photosynthesis model and the
//! optimization layer talk in:
//!
//! * [`Enzyme`] — a catalytic protein with a turnover number, Michaelis
//!   constant and molecular weight.
//! * [`rate_laws`] — Michaelis–Menten rate laws: single- and two-substrate,
//!   and with a competitive inhibitor.
//! * [`nitrogen`] — the protein-nitrogen cost of an enzyme partition, the
//!   second objective of the paper's leaf-redesign problem.
//!
//! # Example
//!
//! ```
//! use pathway_kinetics::rate_laws;
//!
//! // Rubisco-like carboxylation at saturating substrate runs near Vmax.
//! let v = rate_laws::michaelis_menten(100.0, 2.0, 50.0);
//! assert!(v > 95.0 && v <= 100.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod enzyme;
pub mod nitrogen;
pub mod rate_laws;

pub use enzyme::{Enzyme, KineticConstants};
