#![forbid(unsafe_code)]
//! # gpgraph — graph substrate
//!
//! CSR/CSC graph representation (Section II-A of the paper), bit-packed
//! at the arrays' natural widths ([`packed`]), deterministic
//! generators reproducing the degree character of the six Table III input
//! graphs, transposition (needed by pull kernels and the T-OPT baseline),
//! degree statistics, and (de)serialization.
//!
//! ```
//! use gpgraph::{build, GraphInput, SuiteScale, transpose};
//!
//! let g = build(GraphInput::Kron, SuiteScale::Tiny);
//! let csc = transpose(&g); // incoming-neighbor view for pull kernels
//! assert_eq!(g.num_edges(), csc.num_edges());
//! ```

pub mod builder;
pub mod csr;
pub mod degree;
pub mod gen;
pub mod io;
pub mod packed;
pub mod suite;
pub mod transpose;

mod par;

pub use builder::{build_csr, BuildOptions};
pub use csr::{Csr, VertexId};
pub use degree::DegreeStats;
pub use io::GraphIoError;
pub use suite::{build, GraphInput, SuiteScale};
pub use transpose::transpose;
