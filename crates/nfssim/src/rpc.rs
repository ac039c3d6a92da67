//! ONC-RPC framing constants and the RDMA-transport wire messages.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Wire size of an NFS READ call (RPC header + NFS args + chunk list).
pub const RPC_CALL_BYTES: u32 = 140;
/// Wire size of an NFS READ reply header (the data travels separately).
pub const RPC_REPLY_BYTES: u32 = 128;
/// NFS/RDMA fragments record data into chunks of this size (the paper:
/// "data is fragmented into 4K packets for transferring").
pub const NFS_RDMA_CHUNK: u32 = 4096;
/// Record size every client reads or writes: the paper's IOzone record,
/// 256 KB.
pub const RECORD_SIZE: u32 = 256 << 10;

/// RPC messages on the RDMA transport (rides as IB message metadata).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RpcMsg {
    /// READ or WRITE call. For reads the server RDMA-writes the record to
    /// the advertised chunks; for writes the server RDMA-reads it from them
    /// (the NFS/RDMA design of the paper's reference \[17\]).
    Call {
        /// Transaction id.
        xid: u64,
        /// Record length.
        len: u32,
        /// True for WRITE, false for READ.
        write: bool,
    },
    /// Reply: the data for `xid` has moved; RPC complete.
    Reply {
        /// Transaction id.
        xid: u64,
    },
}

impl RpcMsg {
    /// Serialize for [`ibfabric::SendWr::with_meta`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(14);
        match self {
            RpcMsg::Call { xid, len, write } => {
                b.put_u8(0);
                b.put_u64(*xid);
                b.put_u32(*len);
                b.put_u8(u8::from(*write));
            }
            RpcMsg::Reply { xid } => {
                b.put_u8(1);
                b.put_u64(*xid);
            }
        }
        b.freeze()
    }

    /// Deserialize; panics on malformed input (simulation invariant).
    pub fn decode(mut buf: &[u8]) -> Self {
        match buf.get_u8() {
            0 => RpcMsg::Call {
                xid: buf.get_u64(),
                len: buf.get_u32(),
                write: buf.get_u8() != 0,
            },
            1 => RpcMsg::Reply { xid: buf.get_u64() },
            other => panic!("unknown RPC message kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for m in [
            RpcMsg::Call {
                xid: 7,
                len: 262144,
                write: false,
            },
            RpcMsg::Call {
                xid: 8,
                len: 262144,
                write: true,
            },
            RpcMsg::Reply { xid: 7 },
        ] {
            assert_eq!(RpcMsg::decode(&m.encode()), m);
        }
    }

    #[test]
    fn chunk_count_for_paper_record() {
        // A 256 KB IOzone record is 64 RDMA chunks.
        assert_eq!(262_144 / NFS_RDMA_CHUNK, 64);
    }
}
