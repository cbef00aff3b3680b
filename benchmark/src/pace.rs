//! Open-loop pacing: requests are due on a fixed schedule that a slow reply
//! cannot push back, and each is timed from when it was due.

use std::time::Duration;

/// A fixed-rate schedule; all times are offsets from the generator's start.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    interval: Duration,
}

/// How one paced request went.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacedSample {
    /// Reply received minus due time: includes the wait a stall before this
    /// request imposed on it, which timing from the send would hide.
    pub latency: Duration,
    /// Send minus due time: how late the generator itself ran.
    pub lateness: Duration,
}

impl Pacer {
    pub fn per_second(rate: f64) -> Pacer {
        Pacer {
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` (0-based) is due.
    pub fn due(&self, k: u64) -> Duration {
        self.interval.mul_f64(k as f64)
    }

    /// How long to sleep at `now` before sending request `k`; zero when the
    /// generator is already behind (it then sends at once, never skips).
    pub fn wait(&self, k: u64, now: Duration) -> Duration {
        self.due(k).saturating_sub(now)
    }

    pub fn sample(&self, k: u64, sent: Duration, done: Duration) -> PacedSample {
        let due = self.due(k);
        PacedSample {
            latency: done.saturating_sub(due),
            lateness: sent.saturating_sub(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Drive the pacer over scripted service times on a simulated clock.
    fn simulate(pacer: &Pacer, service: &[Duration]) -> Vec<PacedSample> {
        let mut now = Duration::ZERO;
        service
            .iter()
            .enumerate()
            .map(|(k, &took)| {
                now += pacer.wait(k as u64, now);
                let sent = now;
                now += took;
                pacer.sample(k as u64, sent, now)
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let pacer = Pacer::per_second(20.0); // due at 0, 50, 100, 150, 200 ms
        let got = simulate(&pacer, &[2 * MS, 120 * MS, 2 * MS, 2 * MS, 2 * MS]);
        let row = |latency_ms: u32, late_ms: u32| PacedSample {
            latency: latency_ms * MS,
            lateness: late_ms * MS,
        };
        assert_eq!(
            got,
            vec![
                row(2, 0),
                row(120, 0), // sent on time at 50, done at 170
                row(72, 70), // due at 100, could only go at 170
                row(24, 22), // due at 150, sent at 172
                row(2, 0),   // caught up: due 200, generator idle since 174
            ]
        );
    }

    #[test]
    fn an_idle_generator_sleeps_until_the_next_due_time() {
        let pacer = Pacer::per_second(20.0);
        assert_eq!(pacer.wait(3, 120 * MS), 30 * MS);
        assert_eq!(pacer.wait(3, 180 * MS), Duration::ZERO);
    }
}
