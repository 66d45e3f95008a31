//! The canonical path of the simulator's hot-path integer-keyed map.
//!
//! The implementation lives in [`plp_events::fastmap`] because the NVM
//! device model sits *below* `plp-core` in the crate graph and keys its
//! write-combining table with it. Everything above `plp-core` imports
//! it from here. Public because [`PersistImage`](crate::PersistImage)
//! keeps its durable state in these maps: callers comparing against or
//! building an image name the type.

pub use plp_events::fastmap::{FastMap, FibHasher};
