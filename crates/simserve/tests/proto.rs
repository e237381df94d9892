//! Wire-protocol conformance: framing round-trips, corruption and
//! truncation rejection with typed errors, and the oversize bounds.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test when their setup cannot hold"
)]

use simserve::proto::{
    self, CacheStatsMsg, ErrorCode, PointSpec, ProtoError, RecordMsg, Request, Response, StatusMsg,
    SubmitSpec, SweepSummary, MAX_FRAME_BYTES, MAX_POINTS,
};
use simstate::FrameError;
use std::io::Cursor;

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::write_frame(&mut out, payload).expect("framing into a Vec cannot fail");
    out
}

fn submit_fixture() -> Request {
    Request::Submit(SubmitSpec {
        scale: "tiny".to_string(),
        warmup: 2_000,
        measure: 10_000,
        skip: Some(64),
        interval: 1_000,
        points: vec![
            PointSpec {
                workload: "bfs.kron".to_string(),
                system: "baseline".to_string(),
                channels: 0,
            },
            PointSpec {
                workload: "pr.twitter".to_string(),
                system: "sdc_lp".to_string(),
                channels: 4,
            },
        ],
    })
}

fn response_fixtures() -> Vec<Response> {
    vec![
        Response::Submitted { sweep: 7, points: 2 },
        Response::Record(RecordMsg {
            sweep: 7,
            index: 1,
            workload: "pr.twitter".to_string(),
            system: "SDC+LP@4ch".to_string(),
            status: "ok".to_string(),
            cached: true,
            manifest_json: "{\"index\":1}".to_string(),
            intervals_jsonl: "{\"i\":0}\n{\"i\":1}\n".to_string(),
        }),
        Response::SweepDone(SweepSummary { sweep: 7, ok: 1, failed: 0, cached: 1 }),
        Response::StatusInfo(StatusMsg {
            active_sweeps: 1,
            queued_points: 36,
            running_shards: 4,
            completed_sweeps: 9,
            draining: true,
            workers: 8,
        }),
        Response::CacheStatsInfo(CacheStatsMsg {
            result_entries: 1,
            result_hits: 2,
            result_misses: 3,
            points_simulated: 4,
            points_failed: 5,
            traces_cached: 6,
            graphs_cached: 7,
            runners: 8,
            warm_forks: 9,
            stale_reaped: 10,
        }),
        Response::ResultsInfo { sweep: 7, records: vec![] },
        Response::ShutdownComplete { drained_points: 3 },
        Response::Error { code: ErrorCode::QueueFull, detail: "queue full".to_string() },
    ]
}

#[test]
fn every_request_round_trips_through_a_frame() {
    let requests = vec![
        submit_fixture(),
        Request::Status,
        Request::Results { sweep: 42 },
        Request::CacheStats,
        Request::Shutdown,
    ];
    for req in requests {
        let mut wire = Vec::new();
        proto::send_request(&mut wire, &req).expect("encode");
        let got = proto::recv_request(&mut Cursor::new(&wire))
            .expect("decode")
            .expect("a full frame is not EOF");
        assert_eq!(got, req);
    }
}

#[test]
fn every_response_round_trips_through_a_frame() {
    for rsp in response_fixtures() {
        let mut wire = Vec::new();
        proto::send_response(&mut wire, &rsp).expect("encode");
        let got = proto::recv_response(&mut Cursor::new(&wire)).expect("decode");
        assert_eq!(got, rsp);
    }
}

#[test]
fn back_to_back_frames_decode_in_order() {
    let mut wire = Vec::new();
    proto::send_request(&mut wire, &Request::Status).expect("encode");
    proto::send_request(&mut wire, &submit_fixture()).expect("encode");
    let mut cur = Cursor::new(&wire);
    assert_eq!(proto::recv_request(&mut cur).expect("first"), Some(Request::Status));
    assert_eq!(proto::recv_request(&mut cur).expect("second"), Some(submit_fixture()));
    assert_eq!(proto::recv_request(&mut cur).expect("eof"), None, "clean EOF after last frame");
}

#[test]
fn clean_eof_before_any_byte_is_none_not_an_error() {
    assert_eq!(proto::read_frame_opt(&mut Cursor::new(&[])).expect("clean EOF"), None);
}

#[test]
fn golden_bytes_pin_the_srv2_frame() {
    let hex: String = framed(b"ping").iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "5352563200000000040000000000000070696e670400000000000000b5b74fd3d2f185a6");
}

#[test]
fn truncation_at_every_boundary_is_a_typed_truncated_error() {
    let wire = framed(b"hello, sweep");
    // Cutting the stream anywhere after the first magic byte must yield
    // Truncated — never a panic, a short read, or a bogus frame.
    for cut in 1..wire.len() {
        match proto::read_frame_opt(&mut Cursor::new(&wire[..cut])) {
            Err(ProtoError::Frame(FrameError::Truncated)) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_magic_is_rejected_with_the_found_bytes() {
    let mut wire = framed(b"payload");
    wire[0] = b'X';
    match proto::read_frame_opt(&mut Cursor::new(&wire)) {
        Err(ProtoError::Frame(FrameError::BadMagic { found })) => {
            assert_eq!(&found, b"XRV2\0\0\0\0")
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn an_srv1_peer_is_an_unsupported_version() {
    // SRV1 framed a 4-byte magic and a u32 length.
    let mut wire = b"SRV1".to_vec();
    wire.extend_from_slice(&7u32.to_le_bytes());
    wire.extend_from_slice(b"payload");
    wire.extend_from_slice(&[0; 12]);
    assert!(matches!(
        proto::read_frame_opt(&mut Cursor::new(&wire)),
        Err(ProtoError::Frame(FrameError::UnsupportedVersion { .. }))
    ));
}

#[test]
fn payload_corruption_is_caught_by_the_checksum() {
    let payload = b"the daemon's answer";
    let wire = framed(payload);
    // Flip one payload bit (the payload starts after magic + length).
    let payload_start = 16;
    for i in 0..payload.len() {
        let mut bad = wire.clone();
        bad[payload_start + i] ^= 0x20;
        match proto::read_frame_opt(&mut Cursor::new(&bad)) {
            Err(ProtoError::Frame(FrameError::ChecksumMismatch { stored, computed })) => {
                assert_ne!(stored, computed);
            }
            other => panic!("flip at {i}: expected ChecksumMismatch, got {other:?}"),
        }
    }
    // Undamaged control round-trips.
    assert_eq!(
        proto::read_frame_opt(&mut Cursor::new(&wire)).expect("ok").as_deref(),
        Some(payload.as_slice())
    );
}

#[test]
fn length_echo_mismatch_is_its_own_error() {
    let wire = framed(b"four");
    // The footer length-echo sits right after the payload.
    let echo_at = 16 + 4;
    let mut bad = wire.clone();
    bad[echo_at] ^= 0xFF;
    match proto::read_frame_opt(&mut Cursor::new(&bad)) {
        Err(ProtoError::Frame(FrameError::LengthMismatch { header, footer })) => {
            assert_eq!(header, 4);
            assert_ne!(header, footer);
        }
        other => panic!("expected LengthMismatch, got {other:?}"),
    }
}

#[test]
fn oversized_frame_header_is_rejected_before_allocation() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&proto::FRAME_MAGIC);
    wire.extend_from_slice(&u64::MAX.to_le_bytes());
    match proto::read_frame_opt(&mut Cursor::new(&wire)) {
        Err(ProtoError::Frame(FrameError::Oversized { len, max })) => {
            assert_eq!(len, u64::MAX);
            assert_eq!(max, MAX_FRAME_BYTES as u64);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    let huge = vec![0u8; MAX_FRAME_BYTES + 1];
    assert!(matches!(
        proto::write_frame(&mut Vec::new(), &huge),
        Err(ProtoError::Frame(FrameError::Oversized { .. }))
    ));
}

#[test]
fn oversized_submissions_are_rejected_by_count_not_by_ram() {
    // A forged Submit header claiming 2^20 points must be rejected from
    // the count alone — before the decoder tries to materialize them.
    let mut spec = SubmitSpec {
        scale: "tiny".to_string(),
        warmup: 1,
        measure: 1,
        skip: None,
        interval: 0,
        points: vec![PointSpec {
            workload: "bfs.kron".to_string(),
            system: "baseline".to_string(),
            channels: 0,
        }],
    };
    spec.points = std::iter::repeat_with(|| spec.points[0].clone()).take(1).collect();
    let good = Request::Submit(spec).encode();
    // Locate the point-count (a u64 in the stream) and inflate it. The
    // count is the last varint-free u64 before the single point's
    // workload string; rather than hand-pattern the offset, re-encode
    // with a tampered count by splicing: encode two payloads differing
    // only in count and verify the oversize one rejects.
    let claim = (MAX_POINTS + 1) as u64;
    let needle = 1u64.to_le_bytes();
    let replacement = claim.to_le_bytes();
    // The first occurrence of the 8-byte count value 1 after the fixed
    // header fields is the point count (warmup=1 and measure=1 precede
    // it, so take the LAST occurrence before the first string length).
    let positions: Vec<usize> =
        (0..good.len().saturating_sub(8)).filter(|&i| good[i..i + 8] == needle).collect();
    assert!(!positions.is_empty(), "count bytes present");
    let mut rejected = false;
    for &pos in &positions {
        let mut bad = good.clone();
        bad[pos..pos + 8].copy_from_slice(&replacement);
        if let Err(ProtoError::BadMessage(msg)) = Request::decode(&bad) {
            if msg.contains("point bound") {
                rejected = true;
            }
        }
    }
    assert!(rejected, "an inflated point count must trip the {MAX_POINTS}-point bound");
}

#[test]
fn garbage_payload_inside_a_valid_frame_is_a_bad_message() {
    let wire = framed(b"not a request at all");
    let payload =
        proto::read_frame_opt(&mut Cursor::new(&wire)).expect("frame ok").expect("payload present");
    assert!(
        matches!(Request::decode(&payload), Err(ProtoError::BadMessage(_))),
        "valid frame, invalid message must be BadMessage"
    );
}

#[test]
fn error_codes_survive_the_wire_and_name_themselves() {
    for code in
        [ErrorCode::BadRequest, ErrorCode::QueueFull, ErrorCode::Draining, ErrorCode::UnknownSweep]
    {
        let rsp = Response::Error { code, detail: code.as_str().to_string() };
        let mut wire = Vec::new();
        proto::send_response(&mut wire, &rsp).expect("encode");
        let got = proto::recv_response(&mut Cursor::new(&wire)).expect("decode");
        assert_eq!(got, rsp);
    }
    assert_eq!(ErrorCode::QueueFull.as_str(), "queue-full");
}
