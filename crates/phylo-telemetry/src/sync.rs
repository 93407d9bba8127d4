//! The crate's one door to `std::sync::atomic` (lint rule **L004**): the
//! recorder's `Relaxed` statistics counters are its only users.

pub use std::sync::atomic::{AtomicU64, Ordering};
