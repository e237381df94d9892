//! The wire protocol: checksummed frames carrying hand-rolled
//! request/response messages.
//!
//! ## Frames (`SRV2`)
//!
//! Every message travels in one [`simstate::frame`] with the magic
//! [`FRAME_MAGIC`]: a truncated or bit-flipped frame fails with a typed
//! [`ProtoError`] before any message decoding runs, and the length is
//! bounded by [`MAX_FRAME_BYTES`] before any allocation happens, so a
//! corrupt header cannot ask the daemon for gigabytes. A peer still
//! speaking `SRV1` fails as an unsupported version.
//!
//! ## Messages
//!
//! Payloads are [`Request`] / [`Response`] values encoded with the
//! `simstate` byte codec (little-endian scalars, length-prefixed
//! strings) — hand-rolled because the vendored serde has no deserializer.
//! Every decode is bounds-checked, domain-checked, and must consume the
//! payload exactly.

use simstate::frame::{self, FrameError, Magic};
use simstate::{StateError, StateSink, StateSource};
use std::io::{BufWriter, Read, Write};

/// Frame magic: protocol name + version.
pub const FRAME_MAGIC: Magic = *b"SRV2\0\0\0\0";

/// Hard ceiling on a frame payload. A fig7-scale submission is a few KiB
/// and a streamed record with telemetry a few hundred KiB; 16 MiB leaves
/// two orders of magnitude headroom while keeping a corrupt length prefix
/// harmless.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Ceiling on any single string field (manifest JSON, interval JSONL).
pub const MAX_STRING_BYTES: usize = 4 << 20;

/// Ceiling on points per submission (a full 36x7 matrix is 252).
pub const MAX_POINTS: usize = 65_536;

/// Typed wire-protocol failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level I/O failed mid-frame.
    Io(std::io::Error),
    /// The frame is damaged, oversized, from another protocol version, or
    /// not a simserve frame at all (a desynchronized stream).
    Frame(FrameError),
    /// The frame was sound but the message inside failed to decode.
    BadMessage(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "frame i/o: {e}"),
            ProtoError::Frame(e) => write!(f, "bad frame: {e}"),
            ProtoError::BadMessage(detail) => write!(f, "undecodable message: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ProtoError::Io(e),
            other => ProtoError::Frame(other),
        }
    }
}

impl From<StateError> for ProtoError {
    fn from(e: StateError) -> Self {
        ProtoError::BadMessage(e.to_string())
    }
}

/// Write one frame around `payload` and flush, in as few socket writes
/// as the payload size allows.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_BYTES {
        let (len, max) = (payload.len() as u64, MAX_FRAME_BYTES as u64);
        return Err(FrameError::Oversized { len, max }.into());
    }
    frame::write_frame(BufWriter::new(w), &FRAME_MAGIC, payload).map_err(ProtoError::Io)
}

/// Read one frame, verifying magic, bound, length echo, and checksum.
/// A stream that ends *before* the first magic byte returns `Ok(None)`
/// (the peer closed cleanly between frames); any later end is a
/// truncated frame.
pub fn read_frame_opt(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    Ok(frame::read_frame_opt(r, &FRAME_MAGIC, MAX_FRAME_BYTES as u64)?)
}

/// [`read_frame_opt`] for callers that require a frame (mid-stream, a
/// clean close is itself a truncation).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    read_frame_opt(r)?.ok_or(ProtoError::Frame(FrameError::Truncated))
}

fn put_str(sink: &mut StateSink, s: &str) {
    sink.put_bytes(s.as_bytes());
}

fn get_str(src: &mut StateSource<'_>, what: &'static str) -> Result<String, ProtoError> {
    let bytes = src.read_bytes_bounded(what, MAX_STRING_BYTES)?;
    String::from_utf8(bytes).map_err(|_| ProtoError::BadMessage(format!("{what}: invalid utf-8")))
}

/// One point of a submitted sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointSpec {
    /// Workload name (`bfs.kron` style; resolved server-side, loose
    /// spellings accepted).
    pub workload: String,
    /// System design name (`sdc_lp` style).
    pub system: String,
    /// DRAM channel override; 0 keeps the design's Table I default (and
    /// keeps the point cache-compatible with the batch binaries).
    pub channels: u32,
}

impl PointSpec {
    fn encode(&self, sink: &mut StateSink) {
        put_str(sink, &self.workload);
        put_str(sink, &self.system);
        sink.put_u32(self.channels);
    }

    fn decode(src: &mut StateSource<'_>) -> Result<Self, ProtoError> {
        Ok(PointSpec {
            workload: get_str(src, "point workload")?,
            system: get_str(src, "point system")?,
            channels: src.get_u32()?,
        })
    }
}

/// A sweep submission: the window/scale class plus its points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Suite scale name (`tiny`/`small`/`medium`/`full`).
    pub scale: String,
    /// Warmup instructions per point.
    pub warmup: u64,
    /// Measured instructions per point.
    pub measure: u64,
    /// Pre-trace fast-forward; `None` uses the runner default
    /// (`8 x vertices`), which is what the batch binaries use.
    pub skip: Option<u64>,
    /// Telemetry interval in instructions; 0 disables interval streaming.
    pub interval: u64,
    pub points: Vec<PointSpec>,
}

/// What a client can ask the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a sweep; the same connection then streams
    /// [`Response::Record`]s until [`Response::SweepDone`].
    Submit(SubmitSpec),
    /// Scheduler snapshot.
    Status,
    /// Re-fetch the archived records of a completed sweep.
    Results { sweep: u64 },
    /// Warm-cache counters.
    CacheStats,
    /// Drain queued work, then stop accepting and exit.
    Shutdown,
}

const REQ_TAG: &[u8; 4] = b"SRQ1";
const RSP_TAG: &[u8; 4] = b"SRP1";

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut sink = StateSink::new();
        sink.tag(REQ_TAG);
        match self {
            Request::Submit(spec) => {
                sink.put_u8(1);
                put_str(&mut sink, &spec.scale);
                sink.put_u64(spec.warmup);
                sink.put_u64(spec.measure);
                sink.put_opt_u64(spec.skip);
                sink.put_u64(spec.interval);
                sink.put_usize(spec.points.len());
                for p in &spec.points {
                    p.encode(&mut sink);
                }
            }
            Request::Status => sink.put_u8(2),
            Request::Results { sweep } => {
                sink.put_u8(3);
                sink.put_u64(*sweep);
            }
            Request::CacheStats => sink.put_u8(4),
            Request::Shutdown => sink.put_u8(5),
        }
        sink.into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut src = StateSource::new(payload);
        src.expect_tag(REQ_TAG)?;
        let req = match src.get_u8()? {
            1 => {
                let scale = get_str(&mut src, "submit scale")?;
                let warmup = src.get_u64()?;
                let measure = src.get_u64()?;
                let skip = src.get_opt_u64()?;
                let interval = src.get_u64()?;
                let n = src.get_usize()?;
                if n > MAX_POINTS {
                    return Err(ProtoError::BadMessage(format!(
                        "submission of {n} points exceeds the {MAX_POINTS}-point bound"
                    )));
                }
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push(PointSpec::decode(&mut src)?);
                }
                Request::Submit(SubmitSpec { scale, warmup, measure, skip, interval, points })
            }
            2 => Request::Status,
            3 => Request::Results { sweep: src.get_u64()? },
            4 => Request::CacheStats,
            5 => Request::Shutdown,
            other => return Err(ProtoError::BadMessage(format!("unknown request tag {other}"))),
        };
        src.expect_end()?;
        Ok(req)
    }
}

/// Typed rejection codes (the backpressure/fault half of the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The submission itself is malformed (unknown workload/system/scale,
    /// zero points, zero window).
    BadRequest,
    /// The per-client queue bound would be exceeded; resubmit a smaller
    /// sweep or wait for running work to drain.
    QueueFull,
    /// The daemon is draining toward shutdown and accepts no new sweeps.
    Draining,
    /// `Results` named a sweep the archive does not hold.
    UnknownSweep,
}

impl ErrorCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::Draining => "draining",
            ErrorCode::UnknownSweep => "unknown-sweep",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::QueueFull => 2,
            ErrorCode::Draining => 3,
            ErrorCode::UnknownSweep => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        match v {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::QueueFull),
            3 => Ok(ErrorCode::Draining),
            4 => Ok(ErrorCode::UnknownSweep),
            other => Err(ProtoError::BadMessage(format!("unknown error code {other}"))),
        }
    }
}

/// One completed point, streamed to the submitting client as it finishes
/// (and archived for `Results`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMsg {
    pub sweep: u64,
    /// Position in the submission's point list.
    pub index: u32,
    pub workload: String,
    pub system: String,
    /// `ok`, `failed`, or `timed_out` (mirrors the manifest field).
    pub status: String,
    /// Served from the warm result cache (no simulation ran).
    pub cached: bool,
    /// The manifest JSONL line, byte-identical to what the batch binaries
    /// write for the same point (with `index` rewritten to this
    /// submission's ordering and `wall_seconds` fixed at 0).
    pub manifest_json: String,
    /// Interval telemetry as JSONL (empty when the submission's
    /// `interval` was 0, the point failed, or it was a cache hit).
    pub intervals_jsonl: String,
}

impl RecordMsg {
    fn encode(&self, sink: &mut StateSink) {
        sink.put_u64(self.sweep);
        sink.put_u32(self.index);
        put_str(sink, &self.workload);
        put_str(sink, &self.system);
        put_str(sink, &self.status);
        sink.put_bool(self.cached);
        put_str(sink, &self.manifest_json);
        put_str(sink, &self.intervals_jsonl);
    }

    fn decode(src: &mut StateSource<'_>) -> Result<Self, ProtoError> {
        Ok(RecordMsg {
            sweep: src.get_u64()?,
            index: src.get_u32()?,
            workload: get_str(src, "record workload")?,
            system: get_str(src, "record system")?,
            status: get_str(src, "record status")?,
            cached: src.get_bool()?,
            manifest_json: get_str(src, "record manifest")?,
            intervals_jsonl: get_str(src, "record intervals")?,
        })
    }
}

/// End-of-sweep summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    pub sweep: u64,
    pub ok: u32,
    pub failed: u32,
    /// How many of the `ok` records were cache hits.
    pub cached: u32,
}

/// Scheduler snapshot for `simctl status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusMsg {
    pub active_sweeps: u32,
    pub queued_points: u64,
    pub running_shards: u32,
    pub completed_sweeps: u64,
    pub draining: bool,
    pub workers: u32,
}

/// Warm-cache counters for `simctl cache-stats`. The exactly-once
/// property is auditable from these: after any workload,
/// `points_simulated == result_misses` and every additional request for a
/// known point moved `result_hits` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsMsg {
    /// Completed points resident in the result cache.
    pub result_entries: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    /// Points that actually replayed on an engine (== misses that ran).
    pub points_simulated: u64,
    /// Points whose simulation failed (failures are retried, not cached).
    pub points_failed: u64,
    pub traces_cached: u64,
    pub graphs_cached: u64,
    /// Distinct (scale, window, skip) runner classes alive.
    pub runners: u64,
    /// Warmup-fork checkpoints on disk.
    pub warm_forks: u64,
    /// Stale checkpoint files reaped since startup.
    pub stale_reaped: u64,
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Submission accepted; `points` records will stream, then a
    /// [`Response::SweepDone`].
    Submitted {
        sweep: u64,
        points: u32,
    },
    Record(RecordMsg),
    SweepDone(SweepSummary),
    StatusInfo(StatusMsg),
    CacheStatsInfo(CacheStatsMsg),
    /// Archived records of a completed sweep.
    ResultsInfo {
        sweep: u64,
        records: Vec<RecordMsg>,
    },
    /// Drain finished; the daemon exits after this frame.
    ShutdownComplete {
        drained_points: u64,
    },
    /// Typed rejection.
    Error {
        code: ErrorCode,
        detail: String,
    },
}

impl Response {
    /// The variant name (for skew diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Submitted { .. } => "Submitted",
            Response::Record(_) => "Record",
            Response::SweepDone(_) => "SweepDone",
            Response::StatusInfo(_) => "StatusInfo",
            Response::CacheStatsInfo(_) => "CacheStatsInfo",
            Response::ResultsInfo { .. } => "ResultsInfo",
            Response::ShutdownComplete { .. } => "ShutdownComplete",
            Response::Error { .. } => "Error",
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut sink = StateSink::new();
        sink.tag(RSP_TAG);
        match self {
            Response::Submitted { sweep, points } => {
                sink.put_u8(1);
                sink.put_u64(*sweep);
                sink.put_u32(*points);
            }
            Response::Record(rec) => {
                sink.put_u8(2);
                rec.encode(&mut sink);
            }
            Response::SweepDone(s) => {
                sink.put_u8(3);
                sink.put_u64(s.sweep);
                sink.put_u32(s.ok);
                sink.put_u32(s.failed);
                sink.put_u32(s.cached);
            }
            Response::StatusInfo(s) => {
                sink.put_u8(4);
                sink.put_u32(s.active_sweeps);
                sink.put_u64(s.queued_points);
                sink.put_u32(s.running_shards);
                sink.put_u64(s.completed_sweeps);
                sink.put_bool(s.draining);
                sink.put_u32(s.workers);
            }
            Response::CacheStatsInfo(s) => {
                sink.put_u8(5);
                sink.put_u64(s.result_entries);
                sink.put_u64(s.result_hits);
                sink.put_u64(s.result_misses);
                sink.put_u64(s.points_simulated);
                sink.put_u64(s.points_failed);
                sink.put_u64(s.traces_cached);
                sink.put_u64(s.graphs_cached);
                sink.put_u64(s.runners);
                sink.put_u64(s.warm_forks);
                sink.put_u64(s.stale_reaped);
            }
            Response::ResultsInfo { sweep, records } => {
                sink.put_u8(6);
                sink.put_u64(*sweep);
                sink.put_usize(records.len());
                for rec in records {
                    rec.encode(&mut sink);
                }
            }
            Response::ShutdownComplete { drained_points } => {
                sink.put_u8(7);
                sink.put_u64(*drained_points);
            }
            Response::Error { code, detail } => {
                sink.put_u8(8);
                sink.put_u8(code.to_u8());
                put_str(&mut sink, detail);
            }
        }
        sink.into_bytes()
    }

    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut src = StateSource::new(payload);
        src.expect_tag(RSP_TAG)?;
        let rsp = match src.get_u8()? {
            1 => Response::Submitted { sweep: src.get_u64()?, points: src.get_u32()? },
            2 => Response::Record(RecordMsg::decode(&mut src)?),
            3 => Response::SweepDone(SweepSummary {
                sweep: src.get_u64()?,
                ok: src.get_u32()?,
                failed: src.get_u32()?,
                cached: src.get_u32()?,
            }),
            4 => Response::StatusInfo(StatusMsg {
                active_sweeps: src.get_u32()?,
                queued_points: src.get_u64()?,
                running_shards: src.get_u32()?,
                completed_sweeps: src.get_u64()?,
                draining: src.get_bool()?,
                workers: src.get_u32()?,
            }),
            5 => Response::CacheStatsInfo(CacheStatsMsg {
                result_entries: src.get_u64()?,
                result_hits: src.get_u64()?,
                result_misses: src.get_u64()?,
                points_simulated: src.get_u64()?,
                points_failed: src.get_u64()?,
                traces_cached: src.get_u64()?,
                graphs_cached: src.get_u64()?,
                runners: src.get_u64()?,
                warm_forks: src.get_u64()?,
                stale_reaped: src.get_u64()?,
            }),
            6 => {
                let sweep = src.get_u64()?;
                let n = src.get_usize()?;
                if n > MAX_POINTS {
                    return Err(ProtoError::BadMessage(format!(
                        "results of {n} records exceed the {MAX_POINTS}-record bound"
                    )));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(RecordMsg::decode(&mut src)?);
                }
                Response::ResultsInfo { sweep, records }
            }
            7 => Response::ShutdownComplete { drained_points: src.get_u64()? },
            8 => Response::Error {
                code: ErrorCode::from_u8(src.get_u8()?)?,
                detail: get_str(&mut src, "error detail")?,
            },
            other => return Err(ProtoError::BadMessage(format!("unknown response tag {other}"))),
        };
        src.expect_end()?;
        Ok(rsp)
    }
}

/// Frame + encode in one step.
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    write_frame(w, &req.encode())
}

/// Frame + encode in one step.
pub fn send_response(w: &mut impl Write, rsp: &Response) -> Result<(), ProtoError> {
    write_frame(w, &rsp.encode())
}

/// Read + decode one request; `Ok(None)` when the peer closed cleanly.
pub fn recv_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    match read_frame_opt(r)? {
        Some(payload) => Ok(Some(Request::decode(&payload)?)),
        None => Ok(None),
    }
}

/// Read + decode one response (mid-stream close is an error).
pub fn recv_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    Response::decode(&read_frame(r)?)
}
