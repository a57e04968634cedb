//! The repo's benchmark: five closed-loop TCP workloads against an
//! in-process `serve::Server`, gated end-to-end metrics, and a traced
//! pass that measures every layer from the outside. See `README.md`.

pub mod catalogue;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod system;
pub mod trace;
