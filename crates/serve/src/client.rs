//! The resilient `aov client`: one-frame-per-connection requests with
//! retry and decorrelated-jitter exponential backoff.
//!
//! Solves are pure request/response computations, so retries are
//! idempotent by construction — the only state a retry can change is
//! the daemon's memo tier, which is semantically transparent. The
//! client retries on connection failures, torn/absent responses, and
//! structured `overloaded` rejections (honoring their `retry_after_ms`
//! hint as a floor); every other frame — reports, faults, deadline
//! errors — is a terminal answer handed back to the caller.
//!
//! Backoff follows the decorrelated-jitter scheme: each delay is drawn
//! uniformly from `[base, prev * 3]`, clamped to a cap — retries
//! desynchronize instead of stampeding the daemon in lockstep.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use aov_support::rng::Rng;
use aov_support::Json;

use crate::protocol::{self, code};

/// How the client connects and retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon address, e.g. `127.0.0.1:7401`.
    pub addr: String,
    /// Retry attempts after the first try (0 = fail fast).
    pub retries: u32,
    /// Backoff floor in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed (vary per client; fixed seeds make tests exact).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:7401".to_string(),
            retries: 8,
            base_ms: 5,
            cap_ms: 2_000,
            seed: 0x5eed,
        }
    }
}

/// Decorrelated-jitter backoff state.
pub struct Backoff {
    rng: Rng,
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
}

impl Backoff {
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            rng: Rng::new(seed),
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            prev_ms: base_ms,
        }
    }

    /// The next delay: uniform in `[base, prev * 3]` clamped to the
    /// cap, with the server's `retry_after_ms` hint as a floor.
    pub fn next_delay(&mut self, floor_ms: Option<u64>) -> Duration {
        let hi = self
            .prev_ms
            .saturating_mul(3)
            .clamp(self.base_ms + 1, self.cap_ms);
        let span = hi - self.base_ms + 1;
        let mut ms = self.base_ms + self.rng.next_u64() % span;
        if let Some(floor) = floor_ms {
            ms = ms.max(floor);
        }
        self.prev_ms = ms.max(self.base_ms);
        Duration::from_millis(ms.min(self.cap_ms.max(floor_ms.unwrap_or(0))))
    }
}

/// A captured request/response exchange, serializable as an
/// `aov-serve/1` transcript document for `aov inspect --check`.
#[derive(Debug, Default)]
pub struct Transcript {
    frames: Vec<(&'static str, Json)>,
}

impl Transcript {
    fn record(&mut self, dir: &'static str, frame: &Json) {
        self.frames.push((dir, frame.clone()));
    }

    /// The transcript document (`type: "transcript"`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema", protocol::SCHEMA)
            .field("type", "transcript")
            .field(
                "frames",
                self.frames
                    .iter()
                    .map(|(dir, frame)| {
                        Json::obj().field("dir", *dir).field("frame", frame.clone())
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// The terminal result of a (possibly retried) request.
#[derive(Debug)]
pub struct Outcome {
    /// The daemon's final frame (a `report`, `stats`, `health`,
    /// `shutdown` ack, or a non-retryable `error`).
    pub frame: Json,
    /// Total attempts made (1 = no retries needed).
    pub attempts: u32,
    /// How many attempts were shed with `overloaded` before success.
    pub overloaded_retries: u32,
}

/// One attempt: connect, send the frame, read one response line.
fn attempt(addr: &str, line: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    if response.trim().is_empty() {
        return Err("connection closed before a response frame".to_string());
    }
    Json::parse(response.trim()).map_err(|e| format!("bad response frame: {e}"))
}

/// Sends `request` with retry + backoff, returning the terminal frame.
///
/// # Errors
///
/// A transport-level description when every attempt failed to produce
/// a frame (daemon down, connections dropped mid-response, retries
/// exhausted on `overloaded`).
pub fn call(
    cfg: &ClientConfig,
    request: &Json,
    mut transcript: Option<&mut Transcript>,
) -> Result<Outcome, String> {
    let mut line = request.to_compact();
    line.push('\n');
    let mut backoff = Backoff::new(cfg.base_ms, cfg.cap_ms, cfg.seed);
    let mut overloaded_retries = 0u32;
    let mut last_err = String::new();
    for attempt_no in 1..=cfg.retries.saturating_add(1) {
        if let Some(t) = transcript.as_deref_mut() {
            t.record("send", request);
        }
        match attempt(&cfg.addr, &line) {
            Ok(frame) => {
                if let Some(t) = transcript.as_deref_mut() {
                    t.record("recv", &frame);
                }
                let is_overloaded = frame.get("type") == Some(&Json::Str("error".into()))
                    && frame.get("code") == Some(&Json::Str(code::OVERLOADED.into()));
                if is_overloaded {
                    overloaded_retries += 1;
                    last_err = "overloaded".to_string();
                    let hint = match frame.get("retry_after_ms") {
                        Some(Json::Int(ms)) if *ms >= 0 => Some(*ms as u64),
                        _ => None,
                    };
                    std::thread::sleep(backoff.next_delay(hint));
                    continue;
                }
                return Ok(Outcome {
                    frame,
                    attempts: attempt_no,
                    overloaded_retries,
                });
            }
            Err(e) => {
                last_err = e;
                std::thread::sleep(backoff.next_delay(None));
            }
        }
    }
    Err(format!(
        "retries exhausted after {} attempts: {last_err}",
        cfg.retries.saturating_add(1)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_honors_the_hint() {
        let mut b = Backoff::new(5, 400, 7);
        let mut seen = std::collections::HashSet::new();
        let mut prev_allowed = 5u64 * 3;
        for _ in 0..50 {
            let d = b.next_delay(None).as_millis() as u64;
            assert!(d >= 5, "below base: {d}");
            assert!(d <= 400, "above cap: {d}");
            assert!(d <= prev_allowed.max(6), "not decorrelated: {d}");
            prev_allowed = d.saturating_mul(3).min(400);
            seen.insert(d);
        }
        assert!(seen.len() > 5, "delays must jitter, got {seen:?}");
        // The server hint is a floor even early in the schedule.
        let mut b = Backoff::new(5, 400, 7);
        assert!(b.next_delay(Some(120)).as_millis() >= 120);
    }

    #[test]
    fn transcript_documents_validate() {
        let mut t = Transcript::default();
        t.record("send", &protocol::plain_frame("health", 9));
        t.record(
            "recv",
            &protocol::plain_frame("health", 9).field("status", "ok"),
        );
        let doc = t.to_json();
        aov_support::schema::validate(&doc, &protocol::transcript_schema())
            .expect("transcript validates");
    }

    #[test]
    fn unreachable_daemon_exhausts_retries_with_context() {
        let cfg = ClientConfig {
            addr: "127.0.0.1:1".to_string(), // reserved port: refused
            retries: 1,
            base_ms: 1,
            cap_ms: 2,
            seed: 1,
        };
        let err =
            call(&cfg, &protocol::plain_frame("health", 1), None).expect_err("no daemon there");
        assert!(err.contains("retries exhausted"), "{err}");
    }
}
