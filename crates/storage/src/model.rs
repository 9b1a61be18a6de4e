//! A FIFO single-server disk service-time model for the discrete-event
//! simulator.
//!
//! The simulator does not move real bytes; it charges simulated time for
//! each page access. The disk is a single server with deterministic service
//! time per page and a FIFO queue, which matches the behaviour of the
//! prototype's dedicated database disk under bursty load.

use siteselect_types::{SimDuration, SimTime};

/// A simulated disk: each I/O occupies the device for a fixed service time;
/// requests queue FIFO.
///
/// # Example
///
/// ```
/// use siteselect_storage::DiskModel;
/// use siteselect_types::{SimDuration, SimTime};
///
/// let mut disk = DiskModel::new(SimDuration::from_millis(8));
/// let t0 = SimTime::ZERO;
/// let done1 = disk.schedule_io(t0);
/// let done2 = disk.schedule_io(t0); // queues behind the first
/// assert_eq!(done1, SimTime::ZERO + SimDuration::from_millis(8));
/// assert_eq!(done2, SimTime::ZERO + SimDuration::from_millis(16));
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    service_time: SimDuration,
    busy_until: SimTime,
    /// Slow-disk fault episodes as `(start, end)` windows, non-overlapping
    /// and sorted; I/Os issued inside a window pay `slow_factor ×` the
    /// normal service time.
    slow_episodes: Vec<(SimTime, SimTime)>,
    slow_factor: f64,
    slow_ios: u64,
}

impl DiskModel {
    /// Creates a disk with the given per-page service time.
    #[must_use]
    pub fn new(service_time: SimDuration) -> Self {
        DiskModel {
            service_time,
            busy_until: SimTime::ZERO,
            slow_episodes: Vec::new(),
            slow_factor: 1.0,
            slow_ios: 0,
        }
    }

    /// Installs a pre-generated slow-disk fault schedule: during each
    /// `(start, end)` window, every I/O *started* inside the window costs
    /// `factor ×` the normal service time (a degraded spindle or a
    /// background scrub stealing bandwidth). Windows must be sorted and
    /// non-overlapping.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor < 1` or the windows are unsorted.
    pub fn set_slow_episodes(&mut self, episodes: Vec<(SimTime, SimTime)>, factor: f64) {
        debug_assert!(factor >= 1.0, "slow factor {factor} must not speed the disk up");
        debug_assert!(
            episodes.windows(2).all(|w| w[0].1 <= w[1].0),
            "slow episodes must be sorted and non-overlapping"
        );
        self.slow_episodes = episodes;
        self.slow_factor = factor;
    }

    /// True if an I/O starting at `t` falls inside a slow-disk episode.
    #[must_use]
    pub fn is_slow_at(&self, t: SimTime) -> bool {
        // Schedules are tiny (a handful of episodes per run); linear scan
        // with the binary search only as a fast path for long schedules.
        match self.slow_episodes.binary_search_by(|&(s, _)| s.cmp(&t)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => t < self.slow_episodes[i - 1].1,
        }
    }

    /// I/Os that were served at the degraded rate.
    #[must_use]
    pub fn slow_ios(&self) -> u64 {
        self.slow_ios
    }

    /// Enqueues one page I/O issued at `now`; returns its completion time.
    pub fn schedule_io(&mut self, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let service = if self.is_slow_at(start) {
            self.slow_ios += 1;
            self.service_time.mul_f64(self.slow_factor)
        } else {
            self.service_time
        };
        let done = start + service;
        self.busy_until = done;
        done
    }

    /// Enqueues `n` back-to-back page I/Os issued at `now`; returns the
    /// completion time of the last one.
    pub fn schedule_batch(&mut self, now: SimTime, n: u32) -> SimTime {
        let mut done = now;
        for _ in 0..n {
            done = self.schedule_io(now);
        }
        done
    }

    /// Completion time of the most recently queued I/O.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn idle_disk_serves_immediately() {
        let mut d = DiskModel::new(ms(8));
        let done = d.schedule_io(SimTime::from_secs(1));
        assert_eq!(done, SimTime::from_secs(1) + ms(8));
    }

    #[test]
    fn requests_queue_fifo() {
        let mut d = DiskModel::new(ms(10));
        let t = SimTime::ZERO;
        assert_eq!(d.schedule_io(t), t + ms(10));
        assert_eq!(d.schedule_io(t), t + ms(20));
        assert_eq!(d.schedule_io(t), t + ms(30));
    }

    #[test]
    fn disk_drains_when_idle() {
        let mut d = DiskModel::new(ms(10));
        d.schedule_io(SimTime::ZERO);
        // Issued long after the first completes: no queueing.
        let done = d.schedule_io(SimTime::from_secs(5));
        assert_eq!(done, SimTime::from_secs(5) + ms(10));
    }

    #[test]
    fn batch_is_sequential() {
        let mut d = DiskModel::new(ms(5));
        let done = d.schedule_batch(SimTime::ZERO, 4);
        assert_eq!(done, SimTime::ZERO + ms(20));
        assert_eq!(d.schedule_batch(SimTime::from_secs(10), 0), SimTime::from_secs(10));
    }

    #[test]
    fn slow_episode_multiplies_service_time() {
        let mut d = DiskModel::new(ms(10));
        d.set_slow_episodes(
            vec![(SimTime::from_secs(1), SimTime::from_secs(2))],
            4.0,
        );
        // Before the episode: normal.
        assert_eq!(d.schedule_io(SimTime::ZERO), SimTime::ZERO + ms(10));
        // Inside the episode: 4x.
        assert_eq!(d.schedule_io(SimTime::from_secs(1)), SimTime::from_secs(1) + ms(40));
        // After the episode: normal again.
        assert_eq!(d.schedule_io(SimTime::from_secs(3)), SimTime::from_secs(3) + ms(10));
        assert_eq!(d.slow_ios(), 1);
    }

    #[test]
    fn slow_episode_applies_to_queued_start_time() {
        // An I/O issued before the episode but *started* inside it (because
        // the disk was busy) is served at the degraded rate.
        let mut d = DiskModel::new(ms(600));
        d.set_slow_episodes(
            vec![(SimTime::ZERO + ms(500), SimTime::from_secs(5))],
            2.0,
        );
        assert_eq!(d.schedule_io(SimTime::ZERO), SimTime::ZERO + ms(600));
        // Issued at 0, starts at 600ms which is inside the window: 1200ms service.
        assert_eq!(d.schedule_io(SimTime::ZERO), SimTime::ZERO + ms(600) + ms(1_200));
        assert_eq!(d.slow_ios(), 1);
    }

    #[test]
    fn empty_schedule_is_never_slow() {
        let d = DiskModel::new(ms(10));
        assert!(!d.is_slow_at(SimTime::ZERO));
        assert!(!d.is_slow_at(SimTime::from_secs(100)));
    }
}
