//! CPU models for the discrete-event simulator.
//!
//! * [`EdfCpu`] — a single processor scheduled preemptive
//!   Earliest-Deadline-First, as each client schedules its local
//!   transactions (§2: "each client in the system has its own scheduler to
//!   prioritize local transactions … according to the Earliest Deadline
//!   First policy").
//! * [`PsCpu`] — a processor-sharing server CPU with an admission cap, as
//!   the centralized prototype's thread-per-transaction server ("able to
//!   process as many as one hundred transactions simultaneously", §5.1).
//!
//! Both models are event-driven: every scheduling change returns the next
//! completion instant plus a *generation* number; completion events carry
//! the generation so stale events (superseded by later preemptions) are
//! recognized and dropped. This is the standard cancellation-free pattern
//! for priority queues without deletable entries.


use siteselect_types::{InlineVec, SimDuration, SimTime};

/// A `(when, generation)` pair the caller must turn into a scheduled event.
pub type Reschedule = Option<(SimTime, u64)>;

/// Rounds a second count *up* to whole microseconds, so a completion event
/// never fires before the work is actually done (rounding down would leave
/// an infinitesimal residue and a zero-length event loop).
fn ceil_to_micros(secs: f64) -> SimDuration {
    // NaN and non-positive inputs both map to zero work.
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return SimDuration::ZERO;
    }
    let micros = (secs * 1e6).ceil();
    if micros >= u64::MAX as f64 {
        SimDuration::MAX
    } else {
        SimDuration::from_micros(micros as u64)
    }
}

/// Outcome of delivering a completion event to a CPU model.
///
/// `finished` is an [`InlineVec`] because completions are on the simulator
/// hot loop: the common case (one task done, occasionally a handful tying
/// at the same instant) must not heap-allocate per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tick<K> {
    /// The event was superseded by a later scheduling change; ignore it.
    Stale,
    /// These tasks finished; the CPU may have scheduled a further
    /// completion.
    Done {
        /// Tasks that completed at this instant.
        finished: InlineVec<K, 8>,
        /// Next completion to schedule, if the CPU is still busy.
        next: Reschedule,
    },
}

#[derive(Debug, Clone, Copy)]
struct EdfJob<K> {
    key: K,
    deadline: SimTime,
    seq: u64,
    remaining: f64, // seconds of work at speed 1.0
}

/// A single preemptive-EDF processor.
///
/// Work is expressed in seconds of demand at speed 1.0; a processor with
/// `speed` 2.0 finishes one second of work in half a second.
///
/// # Example
///
/// ```
/// use siteselect_core::cpu::{EdfCpu, Tick};
/// use siteselect_types::{SimDuration, SimTime};
///
/// let mut cpu = EdfCpu::new(1.0);
/// let (t, generation) = cpu
///     .submit(SimTime::ZERO, 1u64, SimTime::from_secs(10), SimDuration::from_secs(2))
///     .unwrap();
/// assert_eq!(t, SimTime::from_secs(2));
/// match cpu.on_completion(t, generation) {
///     Tick::Done { finished, next } => {
///         assert_eq!(finished.to_vec(), vec![1]);
///         assert!(next.is_none());
///     }
///     Tick::Stale => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct EdfCpu<K = u64> {
    speed: f64,
    running: Option<EdfJob<K>>,
    running_since: SimTime,
    ready: Vec<EdfJob<K>>, // kept sorted by (deadline, seq)
    generation: u64,
    next_seq: u64,
    busy: SimDuration,
}

impl<K: Copy + Eq> EdfCpu<K> {
    /// Creates an idle processor with the given relative speed.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive.
    #[must_use]
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0, "CPU speed must be positive");
        EdfCpu {
            speed,
            running: None,
            running_since: SimTime::ZERO,
            ready: Vec::new(),
            generation: 0,
            next_seq: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Number of tasks present (running + ready).
    #[must_use]
    pub fn load(&self) -> usize {
        self.ready.len() + usize::from(self.running.is_some())
    }

    /// Total CPU busy time so far.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    fn charge_running(&mut self, now: SimTime) {
        if let Some(run) = &mut self.running {
            let elapsed = now.duration_since(self.running_since);
            run.remaining = (run.remaining - elapsed.as_secs_f64() * self.speed).max(0.0);
            self.busy += elapsed;
            self.running_since = now;
        }
    }

    fn completion_time(&self, now: SimTime) -> SimTime {
        // detlint: allow(D9) — called only from dispatch/on_push paths that just set self.running
        let run = self.running.as_ref().expect("running job");
        now + ceil_to_micros(run.remaining / self.speed)
    }

    fn insert_ready(&mut self, job: EdfJob<K>) {
        let pos = self
            .ready
            .iter()
            .position(|j| (j.deadline, j.seq) > (job.deadline, job.seq))
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, job);
    }

    fn dispatch(&mut self, now: SimTime) -> Reschedule {
        if self.running.is_none() && !self.ready.is_empty() {
            let job = self.ready.remove(0);
            self.running = Some(job);
            self.running_since = now;
        }
        if self.running.is_some() {
            self.generation += 1;
            Some((self.completion_time(now), self.generation))
        } else {
            self.generation += 1; // invalidate any outstanding completion
            None
        }
    }

    /// Submits a task. Returns the next completion to schedule (replacing
    /// any previously returned one).
    pub fn submit(
        &mut self,
        now: SimTime,
        key: K,
        deadline: SimTime,
        demand: SimDuration,
    ) -> Reschedule {
        self.charge_running(now);
        let job = EdfJob {
            key,
            deadline,
            seq: self.next_seq,
            remaining: demand.as_secs_f64(),
        };
        self.next_seq += 1;
        match &self.running {
            Some(run) if (job.deadline, job.seq) < (run.deadline, run.seq) => {
                // Preempt: running job returns to the ready queue.
                // detlint: allow(D9) — the enclosing match arm is Some(run)
                let preempted = self.running.take().expect("checked running");
                self.insert_ready(preempted);
                self.running = Some(job);
                self.running_since = now;
            }
            Some(_) => self.insert_ready(job),
            None => {
                self.running = Some(job);
                self.running_since = now;
            }
        }
        self.generation += 1;
        Some((self.completion_time(now), self.generation))
    }

    /// Delivers a completion event scheduled earlier.
    pub fn on_completion(&mut self, now: SimTime, generation: u64) -> Tick<K> {
        if generation != self.generation {
            return Tick::Stale;
        }
        self.charge_running(now);
        // detlint: allow(D9) — generation matched, so the job that armed this completion still runs
        let run = self.running.take().expect("completion implies a running job");
        debug_assert!(run.remaining <= 1e-9, "completion fired early");
        let next = self.dispatch(now);
        let mut finished = InlineVec::new();
        finished.push(run.key);
        Tick::Done { finished, next }
    }

    /// Removes a task (aborted transaction). Returns the next completion to
    /// schedule if the removal changed what is running.
    pub fn remove(&mut self, now: SimTime, key: K) -> Reschedule {
        self.charge_running(now);
        if self.running.as_ref().is_some_and(|r| r.key == key) {
            self.running = None;
            return self.dispatch(now);
        }
        let before = self.ready.len();
        self.ready.retain(|j| j.key != key);
        if self.ready.len() == before {
            return None; // unknown task: nothing changes
        }
        None
    }

    /// True if `key` is queued or running.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.running.as_ref().is_some_and(|r| r.key == key)
            || self.ready.iter().any(|j| j.key == key)
    }
}

#[derive(Debug, Clone, Copy)]
struct PsJob<K> {
    key: K,
    remaining: f64,
}

/// A processor-sharing CPU with an admission cap: up to `max_active` tasks
/// share the processor equally; excess tasks wait in deadline order.
///
/// Models the centralized server's thread pool (up to 100 transaction
/// threads time-sliced by the OS).
#[derive(Debug)]
pub struct PsCpu<K = u64> {
    speed: f64,
    max_active: usize,
    active: Vec<PsJob<K>>,
    waiting: Vec<(SimTime, u64, K, f64)>, // (deadline, seq, key, work), sorted
    last_advance: SimTime,
    generation: u64,
    next_seq: u64,
    busy: SimDuration,
}

impl<K: Copy + Eq> PsCpu<K> {
    /// Creates an idle processor-sharing CPU.
    ///
    /// # Panics
    ///
    /// Panics if `speed <= 0` or `max_active == 0`.
    #[must_use]
    pub fn new(speed: f64, max_active: usize) -> Self {
        assert!(speed > 0.0, "CPU speed must be positive");
        assert!(max_active > 0, "PS admission cap must be positive");
        PsCpu {
            speed,
            max_active,
            active: Vec::new(),
            waiting: Vec::new(),
            last_advance: SimTime::ZERO,
            generation: 0,
            next_seq: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Total tasks present.
    #[must_use]
    pub fn load(&self) -> usize {
        self.active.len() + self.waiting.len()
    }

    /// Total busy time (the processor counts as busy while any task is
    /// active).
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if self.active.is_empty() || dt <= 0.0 {
            return;
        }
        let rate = self.speed / self.active.len() as f64;
        for j in &mut self.active {
            j.remaining = (j.remaining - dt * rate).max(0.0);
        }
        self.busy += SimDuration::from_secs_f64(dt);
    }

    fn admit(&mut self) {
        while self.active.len() < self.max_active && !self.waiting.is_empty() {
            let (_, _, key, work) = self.waiting.remove(0);
            self.active.push(PsJob {
                key,
                remaining: work,
            });
        }
    }

    fn reschedule(&mut self, now: SimTime) -> Reschedule {
        self.generation += 1;
        let min = self
            .active
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            let dt = min * self.active.len() as f64 / self.speed;
            Some((now + ceil_to_micros(dt), self.generation))
        } else {
            None
        }
    }

    /// Submits a task with the given total work. Returns the next
    /// completion to schedule (replacing any previously returned one).
    pub fn submit(
        &mut self,
        now: SimTime,
        key: K,
        deadline: SimTime,
        demand: SimDuration,
    ) -> Reschedule {
        self.advance(now);
        let work = demand.as_secs_f64().max(1e-9);
        if self.active.len() < self.max_active {
            self.active.push(PsJob {
                key,
                remaining: work,
            });
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            let pos = self
                .waiting
                .iter()
                .position(|w| (w.0, w.1) > (deadline, seq))
                .unwrap_or(self.waiting.len());
            self.waiting.insert(pos, (deadline, seq, key, work));
        }
        self.reschedule(now)
    }

    /// Delivers a completion tick scheduled earlier.
    pub fn on_completion(&mut self, now: SimTime, generation: u64) -> Tick<K> {
        if generation != self.generation {
            return Tick::Stale;
        }
        self.advance(now);
        let mut finished = InlineVec::new();
        self.active.retain(|j| {
            if j.remaining <= 1e-9 {
                finished.push(j.key);
                false
            } else {
                true
            }
        });
        self.admit();
        let next = self.reschedule(now);
        Tick::Done { finished, next }
    }

    /// Removes a task (aborted). Returns the next completion to schedule.
    pub fn remove(&mut self, now: SimTime, key: K) -> Reschedule {
        self.advance(now);
        let before = self.load();
        self.active.retain(|j| j.key != key);
        self.waiting.retain(|w| w.2 != key);
        if self.load() == before {
            return None;
        }
        self.admit();
        self.reschedule(now)
    }

    /// True if `key` is active or waiting.
    #[must_use]
    pub fn contains(&self, key: K) -> bool {
        self.active.iter().any(|j| j.key == key) || self.waiting.iter().any(|w| w.2 == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }
    fn d(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    // ---- EdfCpu ----

    #[test]
    fn edf_runs_single_job() {
        let mut cpu = EdfCpu::new(1.0);
        let (t, g) = cpu.submit(s(0), 1u64, s(100), d(5)).unwrap();
        assert_eq!(t, s(5));
        match cpu.on_completion(t, g) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                assert!(next.is_none());
            }
            Tick::Stale => panic!("not stale"),
        }
        assert_eq!(cpu.busy_time(), d(5));
    }

    #[test]
    fn edf_speed_scales_completion() {
        let mut cpu = EdfCpu::new(2.0);
        let (t, _) = cpu.submit(s(0), 1u64, s(100), d(10)).unwrap();
        assert_eq!(t, s(5));
    }

    #[test]
    fn edf_preemption_by_earlier_deadline() {
        let mut cpu = EdfCpu::new(1.0);
        let (_, g1) = cpu.submit(s(0), 1u64, s(100), d(10)).unwrap();
        // At t=4, job 2 with an earlier deadline arrives and preempts.
        let (t2, g2) = cpu.submit(s(4), 2u64, s(50), d(3)).unwrap();
        assert_eq!(t2, s(7));
        assert_eq!(cpu.on_completion(s(10), g1), Tick::Stale);
        match cpu.on_completion(t2, g2) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![2]);
                // Job 1 resumes with 6s left: completes at 7 + 6 = 13.
                let (t3, g3) = next.unwrap();
                assert_eq!(t3, s(13));
                match cpu.on_completion(t3, g3) {
                    Tick::Done { finished, next } => {
                        assert_eq!(finished.to_vec(), vec![1]);
                        assert!(next.is_none());
                    }
                    Tick::Stale => panic!(),
                }
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn edf_later_deadline_does_not_preempt() {
        let mut cpu = EdfCpu::new(1.0);
        cpu.submit(s(0), 1u64, s(10), d(5));
        let (t, g) = cpu.submit(s(1), 2u64, s(99), d(1)).unwrap();
        assert_eq!(t, s(5)); // job 1 still finishes first
        match cpu.on_completion(t, g) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                assert_eq!(next.unwrap().0, s(6));
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn edf_remove_running_promotes_next() {
        let mut cpu = EdfCpu::new(1.0);
        cpu.submit(s(0), 1u64, s(10), d(5));
        cpu.submit(s(0), 2u64, s(20), d(4));
        let next = cpu.remove(s(2), 1u64);
        let (t, g) = next.unwrap();
        assert_eq!(t, s(6)); // job 2 starts at 2, runs 4s
        match cpu.on_completion(t, g) {
            Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![2]),
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn edf_remove_queued_is_silent() {
        let mut cpu = EdfCpu::new(1.0);
        let (t1, _g1) = cpu.submit(s(0), 1u64, s(10), d(5)).unwrap();
        // Submitting job 2 re-issues the schedule for the still-running job 1.
        let (t1b, g1b) = cpu.submit(s(0), 2u64, s(20), d(4)).unwrap();
        assert_eq!(t1, t1b);
        assert!(cpu.contains(2));
        // Removing the queued job does not disturb the running one: no new
        // schedule is needed and the latest completion event stays valid.
        assert!(cpu.remove(s(1), 2u64).is_none());
        assert!(!cpu.contains(2));
        match cpu.on_completion(t1b, g1b) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                assert!(next.is_none());
            }
            Tick::Stale => panic!("the running job's completion must stay valid"),
        }
    }

    #[test]
    fn edf_fifo_among_equal_deadlines() {
        let mut cpu = EdfCpu::new(1.0);
        cpu.submit(s(0), 1u64, s(10), d(1));
        cpu.submit(s(0), 2u64, s(10), d(1));
        let (t, g) = cpu.submit(s(0), 3u64, s(10), d(1)).unwrap();
        assert_eq!(t, s(1));
        let mut order = Vec::new();
        let mut tick = cpu.on_completion(t, g);
        loop {
            match tick {
                Tick::Done { finished, next } => {
                    order.extend(finished.iter().copied());
                    match next {
                        Some((tn, gn)) => tick = cpu.on_completion(tn, gn),
                        None => break,
                    }
                }
                Tick::Stale => panic!(),
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn edf_load_tracking() {
        let mut cpu = EdfCpu::new(1.0);
        assert_eq!(cpu.load(), 0);
        cpu.submit(s(0), 1u64, s(10), d(5));
        cpu.submit(s(0), 2u64, s(20), d(5));
        assert_eq!(cpu.load(), 2);
        assert!(cpu.contains(1));
        assert!(!cpu.contains(9));
    }

    // ---- PsCpu ----

    #[test]
    fn ps_single_job_like_fcfs() {
        let mut cpu = PsCpu::new(1.0, 10);
        let (t, g) = cpu.submit(s(0), 1u64, s(99), d(4)).unwrap();
        assert_eq!(t, s(4));
        match cpu.on_completion(t, g) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                assert!(next.is_none());
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn ps_two_jobs_share_equally() {
        let mut cpu = PsCpu::new(1.0, 10);
        cpu.submit(s(0), 1u64, s(99), d(4));
        let (t, g) = cpu.submit(s(0), 2u64, s(99), d(4)).unwrap();
        // Both need 4s of work at half speed: done at 8s, simultaneously.
        assert_eq!(t, s(8));
        match cpu.on_completion(t, g) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.len(), 2);
                assert!(next.is_none());
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn ps_unequal_jobs_finish_in_order() {
        let mut cpu = PsCpu::new(1.0, 10);
        cpu.submit(s(0), 1u64, s(99), d(2));
        let (t1, g1) = cpu.submit(s(0), 2u64, s(99), d(6)).unwrap();
        // Job 1: 2s work at rate 1/2 => done at t=4.
        assert_eq!(t1, s(4));
        match cpu.on_completion(t1, g1) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                // Job 2 had 6-2=4s left, now alone: done at 4+4=8.
                let (t2, g2) = next.unwrap();
                assert_eq!(t2, s(8));
                match cpu.on_completion(t2, g2) {
                    Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![2]),
                    Tick::Stale => panic!(),
                }
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn ps_admission_cap_queues_by_deadline() {
        let mut cpu = PsCpu::new(1.0, 1);
        cpu.submit(s(0), 1u64, s(10), d(2));
        cpu.submit(s(0), 2u64, s(30), d(2));
        let (t, g) = cpu.submit(s(0), 3u64, s(20), d(2)).unwrap();
        assert_eq!((cpu.active.len(), cpu.waiting.len()), (1, 2));
        assert_eq!(t, s(2));
        match cpu.on_completion(t, g) {
            Tick::Done { finished, next } => {
                assert_eq!(finished.to_vec(), vec![1]);
                // Deadline order: job 3 (deadline 20) admitted before job 2.
                let (t2, g2) = next.unwrap();
                match cpu.on_completion(t2, g2) {
                    Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![3]),
                    Tick::Stale => panic!(),
                }
            }
            Tick::Stale => panic!(),
        }
    }

    #[test]
    fn ps_stale_generation_ignored() {
        let mut cpu = PsCpu::new(1.0, 10);
        let (t1, g1) = cpu.submit(s(0), 1u64, s(99), d(4)).unwrap();
        let (_t2, _g2) = cpu.submit(s(1), 2u64, s(99), d(4)).unwrap();
        assert_eq!(cpu.on_completion(t1, g1), Tick::Stale);
    }

    #[test]
    fn ps_remove_active_job() {
        let mut cpu = PsCpu::new(1.0, 10);
        cpu.submit(s(0), 1u64, s(99), d(4));
        cpu.submit(s(0), 2u64, s(99), d(4));
        let next = cpu.remove(s(2), 1u64);
        // Job 2 consumed 1s of work by t=2 (rate 1/2); 3s left alone => t=5.
        let (t, g) = next.unwrap();
        assert_eq!(t, s(5));
        match cpu.on_completion(t, g) {
            Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![2]),
            Tick::Stale => panic!(),
        }
        assert!(cpu.remove(s(6), 42u64).is_none());
    }

    #[test]
    fn ps_busy_time_accumulates_wall_clock() {
        let mut cpu = PsCpu::new(1.0, 10);
        cpu.submit(s(0), 1u64, s(99), d(2));
        let (t, g) = cpu.submit(s(0), 2u64, s(99), d(2)).unwrap();
        cpu.on_completion(t, g);
        assert_eq!(cpu.busy_time(), d(4)); // busy from 0 to 4
    }

    #[test]
    fn ps_speed_scales() {
        let mut cpu = PsCpu::new(4.0, 100);
        let (t, _) = cpu.submit(s(0), 1u64, s(99), d(8)).unwrap();
        assert_eq!(t, s(2));
    }
}
