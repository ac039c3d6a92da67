//! Basic InfiniBand identifiers and wire constants.
//!
//! These live in the `ibwire` leaf crate (so the engine's delivery streams
//! can carry packets without depending on the fabric model) and are
//! re-exported here under their original paths.

pub use ibwire::{Lid, ACK_BYTES, DEFAULT_MTU, RC_HEADER_BYTES, READ_REQ_BYTES, UD_HEADER_BYTES};
