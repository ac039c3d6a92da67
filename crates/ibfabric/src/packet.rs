//! The wire unit forwarded between fabric actors (HCAs and switches).
//!
//! The packet types live in the `ibwire` leaf crate so the simulation
//! engine's delivery streams ([`simcore::Ctx::send_stream`]) can carry them
//! by value; they are re-exported here under their original paths. Fabric
//! actors receive packets through [`simcore::Actor::on_packet`] and put them
//! back on the wire with [`crate::link::EgressPort::send`] — no boxing, no
//! downcasting.

pub use ibwire::{Opcode, Packet, Position};
