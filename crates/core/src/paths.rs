//! Coordination-service path conventions and threshold payload encoding.
//!
//! Per §3.3 of the paper, heartbeats are exchanged via the coordination
//! service and the recovery manager's only state — the threshold
//! timestamps — is persisted there so a restarted recovery manager can
//! catch up. Every entity keeps **two** znodes: an *ephemeral* liveness
//! node (vanishes when its session expires — crash detection) and a
//! *persistent* threshold node updated by its heartbeats (survives the
//! crash, so the recovery manager can read the dead entity's last
//! reported threshold). A region server's liveness node belongs to the
//! store, which creates and watches it: [`ServerId::live_path`].

use bytes::Bytes;
use cumulo_store::codec::{Decoder, Encoder};
use cumulo_store::{ClientId, RegionId, ServerId, Timestamp};

/// The recovery manager's published global flushed threshold `T_F`.
pub const TF_PATH: &str = "/recovery/tf";
/// The recovery manager's published global persisted threshold `T_P`.
pub const TP_PATH: &str = "/recovery/tp";

/// Ephemeral liveness node of a key-value client.
pub fn client_live(c: ClientId) -> String {
    format!("/live/clients/{c}")
}

/// Persistent threshold node of a key-value client (holds `T_F(c)`).
pub fn client_threshold(c: ClientId) -> String {
    format!("/thresholds/clients/{c}")
}

/// Persistent threshold node of a region server (holds `T_P(s)`).
pub fn server_threshold(s: ServerId) -> String {
    format!("/thresholds/servers/{s}")
}

/// Persistent node recording the regions of a failed server that still
/// await transactional recovery.
pub fn pending_recovery(s: ServerId) -> String {
    format!("/recovery/pending/{s}")
}

/// Persistent node recording the replay floor of an in-progress region
/// recovery (survives recovery-manager restarts; see ARCHITECTURE.md, server failure).
pub fn region_floor(r: RegionId) -> String {
    format!("/recovery/floor/{r}")
}

/// Alert node for an entity whose tracking queues exceeded the threshold.
pub fn alert(kind: &str, id: u32) -> String {
    format!("/alerts/{kind}/{id}")
}

/// Encodes a timestamp payload.
pub fn encode_ts(ts: Timestamp) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u64(ts.0);
    enc.finish()
}

/// Decodes a timestamp payload (zero on malformed input — the safe,
/// conservative reading for thresholds).
pub fn decode_ts(data: &[u8]) -> Timestamp {
    let mut dec = Decoder::new(data);
    Timestamp(dec.get_u64().unwrap_or(0))
}

/// Encodes a region-id list payload.
pub fn encode_regions(regions: &[RegionId]) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u32(regions.len() as u32);
    for r in regions {
        enc.put_u32(r.0);
    }
    enc.finish()
}

/// Decodes a region-id list payload (empty on malformed input).
pub fn decode_regions(data: &[u8]) -> Vec<RegionId> {
    let mut dec = Decoder::new(data);
    let Ok(n) = dec.get_u32() else {
        return Vec::new();
    };
    (0..n)
        .filter_map(|_| dec.get_u32().ok().map(RegionId))
        .collect()
}

/// Extracts the client id from a `/live/clients/cN` or
/// `/thresholds/clients/cN` path.
pub fn parse_client_path(path: &str) -> Option<ClientId> {
    let name = path.rsplit('/').next()?;
    name.strip_prefix('c')?.parse().ok().map(ClientId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(decode_ts(&encode_ts(Timestamp(v))), Timestamp(v));
        }
        assert_eq!(decode_ts(b""), Timestamp::ZERO);
        assert_eq!(decode_ts(b"abc"), Timestamp::ZERO);
    }

    #[test]
    fn regions_roundtrip() {
        let rs = vec![RegionId(0), RegionId(7), RegionId(123)];
        assert_eq!(decode_regions(&encode_regions(&rs)), rs);
        assert_eq!(decode_regions(&encode_regions(&[])), Vec::<RegionId>::new());
        assert_eq!(decode_regions(b"xx"), Vec::<RegionId>::new());
    }

    #[test]
    fn path_parsing() {
        assert_eq!(
            parse_client_path(&client_live(ClientId(3))),
            Some(ClientId(3))
        );
        assert_eq!(
            parse_client_path(&client_threshold(ClientId(12))),
            Some(ClientId(12))
        );
        assert_eq!(
            ServerId::from_path(&server_threshold(ServerId(4))),
            Some(ServerId(4))
        );
        assert_eq!(parse_client_path("/live/clients/garbage"), None);
    }
}
