//! PFS RPC wire messages.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Wire size of an MDS open/close RPC.
pub const MDS_RPC_BYTES: u32 = 256;
/// Wire size of an OSS read call.
pub const OSS_RPC_BYTES: u32 = 160;
/// Wire size of a reply header.
pub const PFS_REPLY_BYTES: u32 = 128;
/// OSS bulk data moves in RDMA chunks of this size (Lustre's 1 MB bulk
/// window is carried as LNET fragments; we model the RDMA transfer unit).
pub const PFS_RDMA_CHUNK: u32 = 65536;
/// Bytes per stripe-read RPC, the stripe size every file uses (Lustre's
/// default transfer: 1 MB).
pub const STRIPE_SIZE: u32 = 1 << 20;

/// PFS protocol messages.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PfsMsg {
    /// Client → MDS: open a file, asking for its layout.
    Open {
        /// Request id.
        xid: u64,
    },
    /// MDS → client: layout (stripe count rides in the reply).
    OpenReply {
        /// Request id.
        xid: u64,
        /// Number of OSSes the file stripes over.
        stripe_count: u32,
    },
    /// Client → OSS: read one stripe-sized extent.
    Read {
        /// Request id.
        xid: u64,
        /// Extent length.
        len: u32,
    },
    /// OSS → client: the RDMA-written extent for `xid` is complete.
    ReadReply {
        /// Request id.
        xid: u64,
    },
}

impl PfsMsg {
    /// Serialize for [`ibfabric::SendWr::with_meta`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(13);
        match self {
            PfsMsg::Open { xid } => {
                b.put_u8(0);
                b.put_u64(*xid);
            }
            PfsMsg::OpenReply { xid, stripe_count } => {
                b.put_u8(1);
                b.put_u64(*xid);
                b.put_u32(*stripe_count);
            }
            PfsMsg::Read { xid, len } => {
                b.put_u8(2);
                b.put_u64(*xid);
                b.put_u32(*len);
            }
            PfsMsg::ReadReply { xid } => {
                b.put_u8(3);
                b.put_u64(*xid);
            }
        }
        b.freeze()
    }

    /// Deserialize; panics on malformed input (simulation invariant).
    pub fn decode(mut buf: &[u8]) -> Self {
        match buf.get_u8() {
            0 => PfsMsg::Open { xid: buf.get_u64() },
            1 => PfsMsg::OpenReply {
                xid: buf.get_u64(),
                stripe_count: buf.get_u32(),
            },
            2 => PfsMsg::Read {
                xid: buf.get_u64(),
                len: buf.get_u32(),
            },
            3 => PfsMsg::ReadReply { xid: buf.get_u64() },
            other => panic!("unknown PFS message kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for m in [
            PfsMsg::Open { xid: 1 },
            PfsMsg::OpenReply {
                xid: 1,
                stripe_count: 8,
            },
            PfsMsg::Read {
                xid: 2,
                len: 1 << 20,
            },
            PfsMsg::ReadReply { xid: 2 },
        ] {
            assert_eq!(PfsMsg::decode(&m.encode()), m);
        }
    }
}
