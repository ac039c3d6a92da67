//! MPI wire-protocol headers riding on IB messages.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Wire overhead of an eager MPI message (envelope + bookkeeping).
pub const EAGER_HEADER_BYTES: u32 = 48;
/// Wire size of a rendezvous control message (RTS/CTS/FIN).
pub const CTRL_BYTES: u32 = 64;

/// MPI protocol messages exchanged between rank pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiWire {
    /// Eager data: the payload rides in the same IB message.
    Eager {
        /// MPI tag.
        tag: u32,
        /// Payload length.
        len: u32,
    },
    /// Rendezvous request-to-send.
    Rts {
        /// MPI tag.
        tag: u32,
        /// Payload length.
        len: u32,
        /// Rendezvous transaction id.
        rndv: u32,
    },
    /// Rendezvous clear-to-send (receiver's buffer is ready).
    Cts {
        /// Rendezvous transaction id.
        rndv: u32,
    },
    /// Rendezvous finish marker, ordered after the RDMA-written data.
    Fin {
        /// Rendezvous transaction id.
        rndv: u32,
        /// MPI tag (for receiver-side accounting).
        tag: u32,
        /// Payload length.
        len: u32,
    },
    /// RGET rendezvous: receiver finished RDMA-reading the data.
    Done {
        /// Rendezvous transaction id.
        rndv: u32,
    },
    /// R3 rendezvous: one packetized data chunk sent through the eager
    /// channel (copy-based, no RDMA).
    R3Data {
        /// Rendezvous transaction id.
        rndv: u32,
        /// Chunk payload length.
        len: u32,
        /// True on the final chunk.
        last: bool,
    },
}

impl MpiWire {
    /// Serialize for [`ibfabric::SendWr::with_meta`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        match self {
            MpiWire::Eager { tag, len } => {
                b.put_u8(0);
                b.put_u32(*tag);
                b.put_u32(*len);
            }
            MpiWire::Rts { tag, len, rndv } => {
                b.put_u8(1);
                b.put_u32(*tag);
                b.put_u32(*len);
                b.put_u32(*rndv);
            }
            MpiWire::Cts { rndv } => {
                b.put_u8(2);
                b.put_u32(*rndv);
            }
            MpiWire::Fin { rndv, tag, len } => {
                b.put_u8(3);
                b.put_u32(*rndv);
                b.put_u32(*tag);
                b.put_u32(*len);
            }
            MpiWire::Done { rndv } => {
                b.put_u8(5);
                b.put_u32(*rndv);
            }
            MpiWire::R3Data { rndv, len, last } => {
                b.put_u8(6);
                b.put_u32(*rndv);
                b.put_u32(*len);
                b.put_u8(u8::from(*last));
            }
        }
        b.freeze()
    }

    /// Deserialize; panics on malformed input (simulation invariant).
    pub fn decode(mut buf: &[u8]) -> Self {
        let kind = buf.get_u8();
        match kind {
            0 => MpiWire::Eager {
                tag: buf.get_u32(),
                len: buf.get_u32(),
            },
            1 => MpiWire::Rts {
                tag: buf.get_u32(),
                len: buf.get_u32(),
                rndv: buf.get_u32(),
            },
            2 => MpiWire::Cts {
                rndv: buf.get_u32(),
            },
            3 => MpiWire::Fin {
                rndv: buf.get_u32(),
                tag: buf.get_u32(),
                len: buf.get_u32(),
            },
            5 => MpiWire::Done {
                rndv: buf.get_u32(),
            },
            6 => MpiWire::R3Data {
                rndv: buf.get_u32(),
                len: buf.get_u32(),
                last: buf.get_u8() != 0,
            },
            other => panic!("unknown MPI wire kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for w in [
            MpiWire::Eager { tag: 7, len: 4096 },
            MpiWire::Rts {
                tag: 1,
                len: 1 << 20,
                rndv: 42,
            },
            MpiWire::Cts { rndv: 42 },
            MpiWire::Fin {
                rndv: 42,
                tag: 1,
                len: 1 << 20,
            },
            MpiWire::Done { rndv: 9 },
            MpiWire::R3Data {
                rndv: 9,
                len: 16384,
                last: true,
            },
        ] {
            assert_eq!(MpiWire::decode(&w.encode()), w);
        }
    }

    #[test]
    #[should_panic(expected = "unknown MPI wire kind")]
    fn rejects_bad_kind() {
        MpiWire::decode(&[9, 0, 0, 0, 0]);
    }
}
