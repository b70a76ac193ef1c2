//! The daemon's counters: what admission, scheduling and execution did
//! across every job the server has seen. Submit and worker threads bump
//! them concurrently, so each is a relaxed atomic.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ompss_json::Json;

/// One daemon counter; its slot in [`ServeCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Jobs admitted to the queue.
    Admitted,
    /// Jobs rejected at admission (queue full, draining).
    Rejected,
    /// Queued jobs load-shed to admit higher-priority work.
    Shed,
    /// Jobs cancelled by a client before completing.
    Cancelled,
    /// Jobs that hit their deadline while queued or between attempts.
    Deadlines,
    /// Job re-runs after a retryable failure.
    Retries,
    /// Jobs that finished with a result.
    Completed,
    /// Jobs that finished with a terminal error.
    Failed,
    /// High-water mark of the admission queue.
    QueuePeak,
}

/// Protocol names of the counters, in slot order (the `stats` event's
/// `counters.serve.*` keys).
const NAMES: [&str; 9] = [
    "admitted",
    "rejected",
    "shed",
    "cancelled",
    "deadlines",
    "retries",
    "completed",
    "failed",
    "queue_peak",
];

/// The daemon's counter registry.
#[derive(Debug, Default)]
pub struct ServeCounters([AtomicU64; NAMES.len()]);

impl ServeCounters {
    /// Count one more event of kind `c`.
    pub fn bump(&self, c: Count) {
        self.0[c as usize].fetch_add(1, Relaxed);
    }

    /// Raise high-water-mark counter `c` to at least `n`.
    pub fn raise(&self, c: Count, n: u64) {
        self.0[c as usize].fetch_max(n, Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Count) -> u64 {
        self.0[c as usize].load(Relaxed)
    }

    /// `{"serve": {"admitted": …, …}}` — the `counters` object of the
    /// `stats` event.
    pub fn to_json(&self) -> Json {
        let serve = NAMES
            .iter()
            .zip(&self.0)
            .fold(Json::object(), |j, (name, c)| j.field(name, c.load(Relaxed)));
        Json::object().field("serve", serve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_surface_under_counters_serve() {
        let c = ServeCounters::default();
        for _ in 0..5 {
            c.bump(Count::Admitted);
        }
        c.bump(Count::Shed);
        c.raise(Count::QueuePeak, 4);
        c.raise(Count::QueuePeak, 2); // high-water mark keeps the max
        assert_eq!(c.get(Count::QueuePeak), 4);
        let j = c.to_json();
        let s = j.get("serve").expect("daemon counters live under 'serve'");
        assert_eq!(s.get("admitted"), Some(&Json::U64(5)));
        assert_eq!(s.get("shed"), Some(&Json::U64(1)));
        assert_eq!(s.get("queue_peak"), Some(&Json::U64(4)));
        assert_eq!(s.get("rejected"), Some(&Json::U64(0)));
        assert_eq!(s.get("failed"), Some(&Json::U64(0)));
    }
}
