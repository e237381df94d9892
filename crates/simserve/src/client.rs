//! The client side: one blocking request per connection, with a
//! streaming reader for submissions.

use crate::proto::{
    self, CacheStatsMsg, RecordMsg, Request, Response, StatusMsg, SubmitSpec, SweepSummary,
};
use crate::ServeError;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// A handle on a daemon socket. Stateless: every call opens its own
/// connection, so one `Client` can be shared or recreated freely.
#[derive(Clone)]
pub struct Client {
    socket: PathBuf,
}

impl Client {
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Client { socket: socket.into() }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Scheduler snapshot.
    pub fn status(&self) -> Result<StatusMsg, ServeError> {
        match self.roundtrip(&Request::Status)?.1 {
            Response::StatusInfo(s) => Ok(s),
            other => Err(unexpected("StatusInfo", other)),
        }
    }

    /// Warm-cache counters.
    pub fn cache_stats(&self) -> Result<CacheStatsMsg, ServeError> {
        match self.roundtrip(&Request::CacheStats)?.1 {
            Response::CacheStatsInfo(s) => Ok(s),
            other => Err(unexpected("CacheStatsInfo", other)),
        }
    }

    /// Records of a sweep: archived if complete, records-so-far if still
    /// active.
    pub fn results(&self, sweep: u64) -> Result<Vec<RecordMsg>, ServeError> {
        match self.roundtrip(&Request::Results { sweep })?.1 {
            Response::ResultsInfo { records, .. } => Ok(records),
            other => Err(unexpected("ResultsInfo", other)),
        }
    }

    /// Ask the daemon to drain and exit; returns the number of points it
    /// completed while draining.
    pub fn shutdown(&self) -> Result<u64, ServeError> {
        match self.roundtrip(&Request::Shutdown)?.1 {
            Response::ShutdownComplete { drained_points } => Ok(drained_points),
            other => Err(unexpected("ShutdownComplete", other)),
        }
    }

    /// Submit a sweep. On acceptance the returned [`SweepStream`] yields
    /// one [`RecordMsg`] per point as the daemon completes them.
    pub fn submit(&self, spec: SubmitSpec) -> Result<SweepStream, ServeError> {
        let (stream, rsp) = self.roundtrip(&Request::Submit(spec))?;
        match rsp {
            Response::Submitted { sweep, points } => {
                Ok(SweepStream { stream, sweep, points, summary: None })
            }
            other => Err(unexpected("Submitted", other)),
        }
    }

    /// Open a connection, send `req`, read the first response.
    fn roundtrip(&self, req: &Request) -> Result<(UnixStream, Response), ServeError> {
        let mut stream = UnixStream::connect(&self.socket)?;
        proto::send_request(&mut stream, req)?;
        let rsp = proto::recv_response(&mut stream)?;
        if let Response::Error { code, detail } = rsp {
            return Err(ServeError::Rejected { code, detail });
        }
        Ok((stream, rsp))
    }
}

fn unexpected(expected: &'static str, found: Response) -> ServeError {
    ServeError::UnexpectedResponse { expected, found: found.kind() }
}

/// An accepted submission's record stream.
#[derive(Debug)]
pub struct SweepStream {
    stream: UnixStream,
    sweep: u64,
    points: u32,
    summary: Option<SweepSummary>,
}

impl SweepStream {
    /// The daemon-assigned sweep id (usable with [`Client::results`]).
    pub fn sweep(&self) -> u64 {
        self.sweep
    }

    /// How many records the daemon promised.
    pub fn points(&self) -> u32 {
        self.points
    }

    /// The final summary, once [`SweepStream::next_record`] has returned
    /// `None`.
    pub fn summary(&self) -> Option<&SweepSummary> {
        self.summary.as_ref()
    }

    /// Block for the next completed point; `None` after the sweep's
    /// closing summary (retrievable via [`SweepStream::summary`]).
    pub fn next_record(&mut self) -> Result<Option<RecordMsg>, ServeError> {
        if self.summary.is_some() {
            return Ok(None);
        }
        match proto::recv_response(&mut self.stream)? {
            Response::Record(rec) => Ok(Some(rec)),
            Response::SweepDone(summary) => {
                self.summary = Some(summary);
                Ok(None)
            }
            Response::Error { code, detail } => Err(ServeError::Rejected { code, detail }),
            other => Err(unexpected("Record|SweepDone", other)),
        }
    }

    /// Drain the stream: every record plus the closing summary.
    pub fn collect_records(mut self) -> Result<(Vec<RecordMsg>, SweepSummary), ServeError> {
        let mut records = Vec::with_capacity(self.points as usize);
        while let Some(rec) = self.next_record()? {
            records.push(rec);
        }
        match self.summary {
            Some(summary) => Ok((records, summary)),
            // next_record returned None without a summary: impossible by
            // construction, but the type system cannot see that.
            None => {
                Err(ServeError::UnexpectedResponse { expected: "SweepDone", found: "stream end" })
            }
        }
    }
}
