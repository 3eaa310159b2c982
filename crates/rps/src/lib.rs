//! `netrepro-rps` — the rock-paper-scissors client/server of the
//! paper's Figure 3.
//!
//! The paper's motivating example has an undergraduate prompt ChatGPT
//! into a 93-LoC Python client/server pair in four prompts. (The prose
//! says "UDP" but the generated code in Figure 3 uses `SOCK_STREAM`;
//! we implement the TCP protocol the figure actually shows.)
//!
//! Design notes, per the session's Rust networking guides: this program
//! serves a handful of interactive connections and does no concurrent
//! I/O fan-out, which is exactly the case the Tokio tutorial lists under
//! "when not to use Tokio" — so it uses blocking `std::net` sockets with
//! a thread per connection.
//!
//! The wire protocol is line-based text, one message per line:
//!
//! ```text
//! client -> server:  MOVE <R|P|S>        play a round
//!                    DISCONNECT          end the session
//! server -> client:  RESULT <you> <me> <WIN|LOSE|DRAW> <round>
//!                    BYE <rounds-played>
//!                    ERR <reason>
//! ```
//!
//! The same transport discipline (typed errors, frame caps, read
//! timeouts) is reused by the `netrepro serve` job daemon, which
//! extends the line protocol with job-service verbs — see [`job`]:
//!
//! ```text
//! client -> server:  SUBMIT <tenant> <nonce> <spec>
//!                    STATUS <id> | CANCEL <id> | RESULTS <id>
//!                    HEALTH | DRAIN
//! server -> client:  ACCEPTED <id> | REJECTED <reason>
//!                    STATE <id> <state> <journaled> <total>
//!                    RESULTS <id> <len>  (then <len> raw bytes)
//!                    HEALTH <queued> <running> <done>
//!                    DRAINING <in-flight> | ERR <reason>
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod job;
pub mod protocol;
pub mod server;

pub use client::RpsClient;
pub use error::{ProtocolError, MAX_FRAME, MAX_JOB_FRAME};
pub use job::{JobRequest, JobResponse, JobState, RejectReason};
pub use protocol::{Move, Outcome};
pub use server::RpsServer;

/// Read one newline-terminated job-service frame (cap
/// [`MAX_JOB_FRAME`]) from a buffered reader. Same contract as the
/// game's internal frame reader: `Ok(None)` on clean EOF before any
/// bytes, [`ProtocolError::PeerClosed`] on EOF mid-frame,
/// [`ProtocolError::Oversized`] as soon as the cap is crossed.
pub fn read_job_frame(
    reader: &mut impl std::io::BufRead,
) -> Result<Option<String>, ProtocolError> {
    error::read_frame_capped(reader, MAX_JOB_FRAME)
}
