//! Experiment runners shared by the `repro` binary and the Criterion
//! benches. Each public function regenerates one of the paper's tables or
//! figures (see DESIGN.md's experiment index E01–E21) and returns printable
//! rows; the binary formats them next to the paper's reported values.

pub mod artifact;
pub mod experiments;
pub mod gate;
pub mod render;

pub use experiments::*;
