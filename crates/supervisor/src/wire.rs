//! The `rock serve` request/response frames and the protocol-version
//! constants.
//!
//! A frame is `u32 LE body length | body`, where `body = u8 tag |
//! payload`. The framing itself (length prefix, socket IO, oversize
//! policy) lives in `rock-serve`; this module owns the frame bodies,
//! written and read with the one byte codec ([`rock_binary::codec`]).
//! Decoding is fully bounds-checked — truncation, lying lengths,
//! unknown tags and trailing garbage are all [`WireError`]s, never
//! panics — because the daemon decodes whatever bytes a client sends.

use std::fmt;

use rock_binary::codec::{Reader, WireError, Writer};

/// The serve protocol version this build speaks (sent in
/// [`Request::Hello`]; echoed back, possibly lowered, in
/// [`Response::HelloOk`]).
pub const SERVE_PROTOCOL_VERSION: u16 = 1;

/// The oldest client protocol version the daemon still accepts. A
/// [`Request::Hello`] below this is answered with a
/// [`Response::ProtocolError`] and the connection is closed.
pub const SERVE_MIN_PROTOCOL_VERSION: u16 = 1;

/// Why the daemon refused to admit a request. The taxonomy is part of
/// the protocol: clients dispatch on it (back off on `QueueFull`/
/// `QuotaExceeded`, fail over on `Draining`, never retry `TooLarge`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is at capacity — explicit load
    /// shedding instead of unbounded buffering.
    QueueFull,
    /// The client is over its token-bucket rate or max-inflight limit.
    QuotaExceeded,
    /// The daemon is draining: in-flight work finishes, nothing new is
    /// admitted.
    Draining,
    /// The submitted image (or frame) exceeds the daemon's size cap.
    TooLarge,
}

impl RejectReason {
    /// Every reason, in tag order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::QueueFull,
        RejectReason::QuotaExceeded,
        RejectReason::Draining,
        RejectReason::TooLarge,
    ];

    /// Stable lowercase name (reports, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::QuotaExceeded => "quota_exceeded",
            RejectReason::Draining => "draining",
            RejectReason::TooLarge => "too_large",
        }
    }

    fn tag(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::QuotaExceeded => 1,
            RejectReason::Draining => 2,
            RejectReason::TooLarge => 3,
        }
    }

    fn from_tag(tag: u8, at: usize) -> Result<Self, WireError> {
        RejectReason::ALL
            .get(tag as usize)
            .copied()
            .ok_or(WireError { offset: at, what: "reject reason" })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a submitted job currently stands, as reported by
/// [`Response::JobStatus`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// The daemon has no record of this job id.
    Unknown,
    /// Admitted, waiting for a worker; `position` is 0-based.
    Queued {
        /// Jobs ahead of this one in the admission queue.
        position: u64,
    },
    /// A worker is executing the job.
    Running,
    /// The job finished (any outcome — the typed exit code tells how).
    Done {
        /// The job's typed exit code (`rock_supervisor::exit`).
        exit_code: u8,
        /// The outcome name (`ok`, `degraded`, `failed`, ...).
        outcome: String,
        /// Content fingerprint of the emitted result (hierarchy edges,
        /// distance bits, pins, coverage) — lets a client prove two
        /// runs were bit-identical without shipping the artifacts.
        result_fp: u64,
        /// The per-job JSON report, verbatim.
        report_json: String,
    },
    /// The job was cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Unknown => "unknown",
            JobState::Queued { .. } => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Cancelled => "cancelled",
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            JobState::Unknown => w.u8(0),
            JobState::Queued { position } => {
                w.u8(1);
                w.u64(*position);
            }
            JobState::Running => w.u8(2),
            JobState::Done { exit_code, outcome, result_fp, report_json } => {
                w.u8(3);
                w.u8(*exit_code);
                w.string(outcome);
                w.u64(*result_fp);
                w.string(report_json);
            }
            JobState::Cancelled => w.u8(4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let at = r.offset();
        match r.u8("job state tag")? {
            0 => Ok(JobState::Unknown),
            1 => Ok(JobState::Queued { position: r.u64("queue position")? }),
            2 => Ok(JobState::Running),
            3 => Ok(JobState::Done {
                exit_code: r.u8("exit code")?,
                outcome: r.string("outcome")?,
                result_fp: r.u64("result fp")?,
                report_json: r.string("report json")?,
            }),
            4 => Ok(JobState::Cancelled),
            _ => Err(WireError { offset: at, what: "job state tag" }),
        }
    }
}

/// A client → daemon frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// The mandatory first frame on every connection: announces the
    /// client's protocol version and identity. Quotas are keyed by
    /// `client`, across all of that identity's connections.
    Hello {
        /// Highest protocol version the client speaks.
        version: u16,
        /// Client identity (quota key).
        client: String,
    },
    /// Submit one image for reconstruction.
    Submit {
        /// Job name (labels the report).
        name: String,
        /// Per-request watchdog deadline in ms; 0 uses the daemon's
        /// configured default.
        deadline_ms: u64,
        /// The serialized binary image.
        image: Vec<u8>,
    },
    /// Poll one job's state.
    Status {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Cancel a job. Best effort: only a still-queued job can be
    /// cancelled; the reply is the job's state after the attempt.
    Cancel {
        /// The job id from [`Response::Accepted`].
        job: u64,
    },
    /// Ask the daemon to drain: stop admission, finish in-flight and
    /// queued jobs, then exit.
    Drain,
}

impl Request {
    /// Encodes the frame *body* (tag + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Hello { version, client } => {
                w.u8(1);
                w.u16(*version);
                w.string(client);
            }
            Request::Submit { name, deadline_ms, image } => {
                w.u8(2);
                w.string(name);
                w.u64(*deadline_ms);
                w.blob(image);
            }
            Request::Status { job } => {
                w.u8(3);
                w.u64(*job);
            }
            Request::Cancel { job } => {
                w.u8(4);
                w.u64(*job);
            }
            Request::Drain => w.u8(5),
        }
        w.into_bytes()
    }

    /// Decodes one frame body. Fully bounds-checked: truncation, lying
    /// lengths, unknown tags, and trailing garbage are all
    /// [`WireError`]s, never panics.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(body);
        let at = r.offset();
        let req = match r.u8("request tag")? {
            1 => Request::Hello { version: r.u16("version")?, client: r.string("client")? },
            2 => Request::Submit {
                name: r.string("job name")?,
                deadline_ms: r.u64("deadline")?,
                image: r.blob("image")?,
            },
            3 => Request::Status { job: r.u64("job id")? },
            4 => Request::Cancel { job: r.u64("job id")? },
            5 => Request::Drain,
            _ => return Err(WireError { offset: at, what: "request tag" }),
        };
        if !r.is_at_end() {
            return Err(WireError { offset: r.offset(), what: "trailing bytes" });
        }
        Ok(req)
    }
}

/// A daemon → client frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Hello accepted; `version` is the negotiated protocol version
    /// (`min(client, daemon)`).
    HelloOk {
        /// The version both ends will speak.
        version: u16,
    },
    /// The submission was admitted under this job id.
    Accepted {
        /// Daemon-unique job id.
        job: u64,
    },
    /// The submission was shed with a typed reason.
    Rejected {
        /// Why admission refused the request.
        reason: RejectReason,
        /// Human-readable detail (limits, current depth, ...).
        detail: String,
    },
    /// Reply to [`Request::Status`] and [`Request::Cancel`].
    JobStatus {
        /// The queried job id.
        job: u64,
        /// Its current state.
        state: JobState,
    },
    /// Drain acknowledged; the counts are a snapshot at acknowledgment.
    DrainStarted {
        /// Jobs still waiting in the queue.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
    },
    /// The peer broke the protocol (bad version, malformed frame,
    /// missing Hello). The connection closes after this frame.
    ProtocolError {
        /// What was wrong.
        message: String,
    },
}

impl Response {
    /// Encodes the frame *body* (tag + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::HelloOk { version } => {
                w.u8(128);
                w.u16(*version);
            }
            Response::Accepted { job } => {
                w.u8(129);
                w.u64(*job);
            }
            Response::Rejected { reason, detail } => {
                w.u8(130);
                w.u8(reason.tag());
                w.string(detail);
            }
            Response::JobStatus { job, state } => {
                w.u8(131);
                w.u64(*job);
                state.encode(&mut w);
            }
            Response::DrainStarted { queued, running } => {
                w.u8(132);
                w.u64(*queued);
                w.u64(*running);
            }
            Response::ProtocolError { message } => {
                w.u8(133);
                w.string(message);
            }
        }
        w.into_bytes()
    }

    /// Decodes one frame body (same guarantees as [`Request::decode`]).
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(body);
        let at = r.offset();
        let resp = match r.u8("response tag")? {
            128 => Response::HelloOk { version: r.u16("version")? },
            129 => Response::Accepted { job: r.u64("job id")? },
            130 => {
                let at = r.offset();
                let tag = r.u8("reject reason")?;
                Response::Rejected {
                    reason: RejectReason::from_tag(tag, at)?,
                    detail: r.string("reject detail")?,
                }
            }
            131 => Response::JobStatus { job: r.u64("job id")?, state: JobState::decode(&mut r)? },
            132 => Response::DrainStarted {
                queued: r.u64("queued count")?,
                running: r.u64("running count")?,
            },
            133 => Response::ProtocolError { message: r.string("error message")? },
            _ => return Err(WireError { offset: at, what: "response tag" }),
        };
        if !r.is_at_end() {
            return Err(WireError { offset: r.offset(), what: "trailing bytes" });
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: SERVE_PROTOCOL_VERSION, client: "tenant-a".into() },
            Request::Submit { name: "job".into(), deadline_ms: 0, image: vec![1, 2, 3, 0xFF] },
            Request::Submit { name: String::new(), deadline_ms: u64::MAX, image: Vec::new() },
            Request::Status { job: 42 },
            Request::Cancel { job: u64::MAX },
            Request::Drain,
        ]
    }

    fn all_responses() -> Vec<Response> {
        let mut out = vec![
            Response::HelloOk { version: SERVE_PROTOCOL_VERSION },
            Response::Accepted { job: 7 },
            Response::JobStatus { job: 1, state: JobState::Unknown },
            Response::JobStatus { job: 2, state: JobState::Queued { position: 3 } },
            Response::JobStatus { job: 3, state: JobState::Running },
            Response::JobStatus {
                job: 4,
                state: JobState::Done {
                    exit_code: 2,
                    outcome: "degraded".into(),
                    result_fp: 0xDEAD_BEEF_CAFE_F00D,
                    report_json: "{\"job\":\"x\"}".into(),
                },
            },
            Response::JobStatus { job: 5, state: JobState::Cancelled },
            Response::DrainStarted { queued: 9, running: 4 },
            Response::ProtocolError { message: "bad tag".into() },
        ];
        for reason in RejectReason::ALL {
            out.push(Response::Rejected { reason, detail: format!("shed: {reason}") });
        }
        out
    }

    #[test]
    fn serve_requests_roundtrip() {
        for req in all_requests() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn serve_responses_roundtrip() {
        for resp in all_responses() {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn serve_frames_reject_unknown_tags_and_trailing_bytes() {
        assert!(Request::decode(&[]).is_err(), "empty body");
        assert!(Request::decode(&[0]).is_err(), "tag 0 is reserved");
        assert!(Request::decode(&[200]).is_err(), "response-range tag in a request");
        assert!(Response::decode(&[1]).is_err(), "request-range tag in a response");
        assert!(Response::decode(&[255]).is_err(), "unknown response tag");
        let mut body = Request::Drain.encode();
        body.push(0);
        let err = Request::decode(&body).unwrap_err();
        assert_eq!(err.what, "trailing bytes");
        let mut body = Response::Accepted { job: 1 }.encode();
        body.push(9);
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn serve_frames_reject_truncation_everywhere() {
        // Every prefix of every valid frame must decode to a typed
        // error, never panic, never succeed.
        for req in all_requests() {
            let body = req.encode();
            for cut in 0..body.len() {
                assert!(Request::decode(&body[..cut]).is_err(), "{req:?} cut at {cut}");
            }
        }
        for resp in all_responses() {
            let body = resp.encode();
            for cut in 0..body.len() {
                assert!(Response::decode(&body[..cut]).is_err(), "{resp:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn reject_reasons_have_stable_names_and_tags() {
        let names: Vec<&str> = RejectReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["queue_full", "quota_exceeded", "draining", "too_large"]);
        for (i, reason) in RejectReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.tag() as usize, i);
            assert_eq!(RejectReason::from_tag(reason.tag(), 0).unwrap(), reason);
        }
        assert!(RejectReason::from_tag(4, 0).is_err());
    }
}
