//! Load generation: closed-loop HTTP clients, the open-loop writer, and
//! the accounting of attempted, correct and failed goals.

use crate::client;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

/// How one `POST /explain` answer compared with the reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `200` and byte-identical to the reference.
    Correct,
    /// `200` with a body that differs from the reference.
    Wrong,
    /// Refused (`503`, `4xx`) or lost to an I/O error.
    Refused,
}

/// Judges one response. `expected` tells whether the `answers` array of
/// a `200` body is right for the snapshot version the body reports.
pub fn judge(
    response: &std::io::Result<client::Response>,
    expected: impl FnOnce(u64, &[u8]) -> bool,
) -> Verdict {
    match response {
        Ok(r) if r.status == 200 => match crate::workload::split_answers(&r.body) {
            Some((version, answers)) if expected(version, answers) => Verdict::Correct,
            _ => Verdict::Wrong,
        },
        _ => Verdict::Refused,
    }
}

/// One request sent inside the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it was sent, in seconds from the start of the window.
    pub at: f64,
    /// From send to full response read, in ms.
    pub latency_ms: f64,
    /// Goals it answered correctly.
    pub goals_correct: u32,
}

/// Goal and request accounting of one phase. Every request counts
/// towards correctness, warm-up included; a request sent inside the
/// measured window also leaves a [`Sample`].
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub goals_attempted: u64,
    pub goals_correct: u64,
    pub goals_wrong: u64,
    pub goals_refused: u64,
    pub requests_refused: u64,
    /// Goals of requests sent inside the window.
    pub window_goals: u64,
    /// Response bytes of requests sent inside the window.
    pub response_bytes: u64,
    pub samples: Vec<Sample>,
}

impl Tally {
    /// Records one request of `goals` goals, sent `at` seconds into the
    /// window (`None` during warm-up).
    pub fn record(
        &mut self,
        verdict: Verdict,
        goals: usize,
        latency: Duration,
        bytes: usize,
        at: Option<f64>,
    ) {
        let n = goals as u64;
        self.goals_attempted += n;
        match verdict {
            Verdict::Correct => self.goals_correct += n,
            Verdict::Wrong => self.goals_wrong += n,
            Verdict::Refused => {
                self.goals_refused += n;
                self.requests_refused += 1;
            }
        }
        if let Some(at) = at {
            self.window_goals += n;
            self.response_bytes += bytes as u64;
            self.samples.push(Sample {
                at,
                latency_ms: latency.as_secs_f64() * 1e3,
                goals_correct: if verdict == Verdict::Correct {
                    goals as u32
                } else {
                    0
                },
            });
        }
    }

    /// Turns a request recorded as correct into a wrong one, when a
    /// later check finds its answer differs from the reference. Any such
    /// goal fails the run, so its sample is left as it was.
    pub fn demote(&mut self, goals: usize) {
        self.goals_correct -= goals as u64;
        self.goals_wrong += goals as u64;
    }

    pub fn goals_failed(&self) -> u64 {
        self.goals_wrong + self.goals_refused
    }

    /// Goals failed, refused or answered wrongly ÷ goals attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.goals_failed() as f64 / self.goals_attempted.max(1) as f64
    }

    /// Latencies of the window's requests, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    pub fn merge(&mut self, other: Tally) {
        self.goals_attempted += other.goals_attempted;
        self.goals_correct += other.goals_correct;
        self.goals_wrong += other.goals_wrong;
        self.goals_refused += other.goals_refused;
        self.requests_refused += other.requests_refused;
        self.window_goals += other.window_goals;
        self.response_bytes += other.response_bytes;
        self.samples.extend(other.samples);
    }
}

/// The measured window of a load phase: requests sent before `start`
/// warm the server up; none are sent after `end`.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
}

/// Runs one closed-loop client: sends the batches of `bodies` in a
/// cycle, one request at a time, until the window ends. `check` judges
/// each response given the index of its batch; its time is not part of
/// the request's latency.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[(String, usize)],
    window: Window,
    mut check: impl FnMut(usize, std::io::Result<client::Response>) -> Verdict,
) -> Tally {
    let mut tally = Tally::default();
    for i in (0..bodies.len()).cycle() {
        let sent = Instant::now();
        if sent >= window.end {
            break;
        }
        let (body, goals) = &bodies[i];
        let response = client::explain(addr, body);
        let latency = sent.elapsed();
        let bytes = response.as_ref().map_or(0, |r| r.body.len());
        let at = (sent >= window.start).then(|| (sent - window.start).as_secs_f64());
        let verdict = check(i, response);
        tally.record(verdict, *goals, latency, bytes, at);
    }
    tally
}

/// How long before a due time the open-loop writer stops sleeping.
const SPIN: Duration = Duration::from_millis(2);

/// One tick of the open-loop writer.
#[derive(Clone, Copy, Debug)]
pub struct Tick<T> {
    /// How long after its due time the operation serving it started.
    pub late: Duration,
    /// From the due time to the return of the operation serving it.
    pub latency: Duration,
    /// What the operation serving it reported.
    pub value: T,
    /// True for the first of the ticks one operation served.
    pub first: bool,
}

/// Runs the `count` ticks of an open-loop schedule, the `k`-th due at
/// `start + (k + 1) * period` whatever the earlier ones took. Ticks that
/// fall due while an operation runs are served together by the next
/// one, which receives the range of ticks it serves: a slow operation
/// delays later ticks, but work never queues up behind it. Each tick is
/// timed from its own due time, so a stall shows in every tick it
/// delays, not only in the one that stalled.
pub fn open_loop<T: Clone>(
    start: Instant,
    period: Duration,
    count: usize,
    mut op: impl FnMut(Range<usize>) -> T,
) -> Vec<Tick<T>> {
    let due = |k: usize| start + period * (k as u32 + 1);
    let mut ticks = Vec::with_capacity(count);
    let mut k = 0;
    while k < count {
        // Sleep to just short of the due time and spin the rest, so the
        // tick starts on time instead of whenever the scheduler wakes
        // the thread.
        let now = Instant::now();
        if now + SPIN < due(k) {
            std::thread::sleep(due(k) - SPIN - now);
        }
        while Instant::now() < due(k) {
            std::hint::spin_loop();
        }
        let began = Instant::now();
        let end = (k + 1..count).find(|&i| due(i) > began).unwrap_or(count);
        let value = op(k..end);
        let done = Instant::now();
        ticks.extend((k..end).map(|i| Tick {
            late: began - due(i),
            latency: done - due(i),
            value: value.clone(),
            first: i == k,
        }));
        k = end;
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> std::io::Result<client::Response> {
        Ok(client::Response {
            status,
            body: body.as_bytes().to_vec(),
        })
    }

    #[test]
    fn wrong_answers_and_refusals_count_as_failed() {
        let right = r#"[{"goal":"g","text":"t"}]"#;
        let expect = |v: u64, a: &[u8]| v == 1 && a == right.as_bytes();
        let ms = Duration::from_millis(1);
        let mut tally = Tally::default();
        let ok = response(
            200,
            &format!(r#"{{"snapshot_version":1,"answers":{right}}}"#),
        );
        tally.record(judge(&ok, expect), 8, ms, 10, Some(0.5));
        assert_eq!(tally.failed_ratio(), 0.0);

        // An injected wrong answer: one byte differs.
        let wrong = response(
            200,
            r#"{"snapshot_version":1,"answers":[{"goal":"g","text":"T"}]}"#,
        );
        assert_eq!(judge(&wrong, expect), Verdict::Wrong);
        tally.record(judge(&wrong, expect), 8, ms, 10, Some(0.6));
        // An injected 503 shed, during warm-up: still a failure.
        let shed = response(503, r#"{"error":"job queue saturated; retry later"}"#);
        assert_eq!(judge(&shed, expect), Verdict::Refused);
        tally.record(judge(&shed, expect), 8, ms, 10, None);
        // A lost connection.
        let lost: std::io::Result<client::Response> =
            Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        tally.record(judge(&lost, expect), 8, ms, 0, Some(0.7));
        // An answer first taken as correct, found wrong by a later check.
        tally.record(Verdict::Correct, 8, ms, 10, Some(0.8));
        tally.demote(8);

        assert_eq!(tally.goals_attempted, 40);
        assert_eq!(tally.goals_failed(), 32);
        assert_eq!(tally.failed_ratio(), 0.8);
        assert_eq!(tally.requests_refused, 2);
        assert_eq!(tally.samples.len(), 4);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let period = Duration::from_millis(20);
        let stall = Duration::from_millis(70);
        let start = Instant::now();
        let mut served = Vec::new();
        let ticks = open_loop(start, period, 4, |range| {
            if range.start == 0 {
                std::thread::sleep(stall);
            }
            served.push(range);
        });
        // Ticks 1-3 fell due (at 40, 60 and 80 ms) while tick 0 stalled
        // until about 90 ms. One operation served them together, and each
        // is timed from its own due time, not from when it was sent.
        assert_eq!(served, [0..1, 1..4]);
        assert!(ticks[1].first && !ticks[2].first && !ticks[3].first);
        for (i, t) in ticks.iter().enumerate().skip(1) {
            let sent_to_done = t.latency - t.late;
            assert!(t.late >= stall - period * i as u32, "{i}: {:?}", t.late);
            assert!(
                sent_to_done < Duration::from_millis(10),
                "{i}: {sent_to_done:?}"
            );
        }
        assert!(ticks[0].latency >= stall);
    }
}
