//! Tenant-level scheduling: which sessions hold the pool's compute slots.
//!
//! The single-session schedulers in `phylo-sched` decide *pattern → worker*
//! within one dataset. Serving adds a second axis: a pool of width `T` has
//! `T` compute slots, a session computes only while it holds one (it runs
//! all `T` of its shards on its own driver thread), and the policy decides
//! *which sessions* hold them. It is deliberately small and deterministic:
//!
//! * [`TenantStrategy`] bounds the pool (admission capacity) and sets the
//!   service quantum.
//! * [`FairQueue`] is a stride scheduler over session weights: a session of
//!   weight `w` advances its virtual *pass* by `1/w` per region it runs. A
//!   holder keeps its slot for at least `quantum` regions; at each quantum
//!   boundary it hands the slot to the waiting session with the lowest pass
//!   if that pass is below its own, and keeps it otherwise. Service is
//!   proportional to weight over time and no tenant starves, yet the whole
//!   thing is plain arithmetic — reproducible in a unit test, no clocks, no
//!   threads.

use std::collections::BTreeMap;
use std::time::Duration;

/// Pool-level scheduling policy: admission bound plus service quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStrategy {
    /// Maximum live sessions admitted at once; the bound behind
    /// [`crate::AdmissionError::PoolFull`].
    pub max_sessions: usize,
    /// Ignored: no region serves more than one session. The field stays
    /// because callers build this struct literally.
    pub max_batch: usize,
    /// Ignored: no region waits for other sessions. The field stays because
    /// callers build this struct literally.
    pub batch_window: Duration,
    /// Regions a session runs on its compute slot before it checks for
    /// waiting sessions. A quantum of 1 is pure per-region stride scheduling
    /// (maximum interleaving); larger quanta keep each slot's tenant for that
    /// many regions, so its working set stays in the core's cache and the
    /// shared slot state is touched once per quantum — short-term service
    /// skew is bounded by the quantum and long-run shares still follow the
    /// weights.
    pub quantum: u32,
}

impl Default for TenantStrategy {
    fn default() -> Self {
        Self {
            max_sessions: 64,
            max_batch: 16,
            batch_window: Duration::ZERO,
            quantum: 32,
        }
    }
}

/// Weighted fair sharing of `slots` compute slots among session ids (stride
/// scheduling with a service quantum).
///
/// A registered session is idle, waiting or holding a slot. [`grant`] asks
/// for a slot, [`charge`] bills a holder for the regions it ran and moves
/// the slot at a quantum boundary, [`release`] gives a slot (or a place in
/// the queue) back, and every method that frees a slot returns the waiter
/// it went to — the one session the caller has to wake. A free slot never
/// coexists with a waiter.
///
/// Determinism: waiters rank by `(pass, session id)`, so equal-pass ties
/// always break toward the older (lower-id) session.
///
/// [`grant`]: FairQueue::grant
/// [`charge`]: FairQueue::charge
/// [`release`]: FairQueue::release
#[derive(Debug)]
pub struct FairQueue {
    // BTreeMap, not HashMap: the waiter search iterates the lanes, and which
    // session a slot goes to must not depend on hash order (L006).
    lanes: BTreeMap<u64, Lane>,
    slots: usize,
    quantum: u32,
}

#[derive(Debug)]
struct Lane {
    stride: f64,
    pass: f64,
    state: LaneState,
    /// Regions charged since the lane's grant or its last quantum boundary.
    used: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Idle,
    Waiting,
    Holding,
}

impl FairQueue {
    /// An empty queue over `slots` compute slots with service quantum
    /// `quantum` (at least 1).
    pub fn new(slots: usize, quantum: u32) -> Self {
        Self {
            lanes: BTreeMap::new(),
            slots,
            quantum: quantum.max(1),
        }
    }

    /// The service quantum, in regions.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }

    /// Registers `session`, idle, with fair-share `weight` (> 0). The lane
    /// starts at the minimum live pass, so a late joiner is *caught up*, not
    /// handed the whole backlog of regions it never waited for.
    pub fn register(&mut self, session: u64, weight: u32) {
        let floor = self
            .lanes
            .values()
            .map(|l| l.pass)
            .fold(f64::INFINITY, f64::min);
        let pass = if floor.is_finite() { floor } else { 0.0 };
        self.lanes.insert(
            session,
            Lane {
                stride: 1.0 / f64::from(weight.max(1)),
                pass,
                state: LaneState::Idle,
                used: 0,
            },
        );
    }

    /// Asks for a slot on behalf of `session`: `true` if it holds one now,
    /// otherwise it waits in the queue until a [`charge`](Self::charge) or
    /// [`release`](Self::release) hands it one. Unknown ids get nothing.
    pub fn grant(&mut self, session: u64) -> bool {
        let free = self.held() < self.slots;
        let Some(lane) = self.lanes.get_mut(&session) else {
            return false;
        };
        if lane.state == LaneState::Idle {
            lane.state = if free {
                LaneState::Holding
            } else {
                LaneState::Waiting
            };
            lane.used = 0;
        }
        lane.state == LaneState::Holding
    }

    /// Bills `session` for `regions` regions of service (`pass += regions ×
    /// stride`). When a holder completes its quantum and a waiter ranks
    /// below it, the slot moves: the holder waits and the waiter — returned
    /// — holds. Otherwise the holder keeps its slot and `None` comes back.
    pub fn charge(&mut self, session: u64, regions: u32) -> Option<u64> {
        let quantum = self.quantum;
        let lane = self.lanes.get_mut(&session)?;
        lane.pass += lane.stride * f64::from(regions);
        if lane.state != LaneState::Holding {
            return None;
        }
        lane.used += regions;
        if lane.used < quantum {
            return None;
        }
        lane.used = 0;
        let holder = (lane.pass, session);
        let (_, next) = self.lowest_waiter().filter(|&waiter| waiter < holder)?;
        if let Some(lane) = self.lanes.get_mut(&session) {
            lane.state = LaneState::Waiting;
        }
        self.hand_to(next);
        Some(next)
    }

    /// `session` stops holding or waiting for a slot. A freed slot goes to
    /// the lowest-ranked waiter, which is returned.
    pub fn release(&mut self, session: u64) -> Option<u64> {
        let lane = self.lanes.get_mut(&session)?;
        let was = std::mem::replace(&mut lane.state, LaneState::Idle);
        if was != LaneState::Holding {
            return None;
        }
        let (_, next) = self.lowest_waiter()?;
        self.hand_to(next);
        Some(next)
    }

    /// [`release`](Self::release)s `session` and drops its lane (a no-op for
    /// unknown ids).
    pub fn remove(&mut self, session: u64) -> Option<u64> {
        let next = self.release(session);
        self.lanes.remove(&session);
        next
    }

    /// Whether `session` holds a slot.
    pub fn holds(&self, session: u64) -> bool {
        self.lanes
            .get(&session)
            .is_some_and(|l| l.state == LaneState::Holding)
    }

    /// Slots currently held (never more than the pool has).
    pub fn held(&self) -> usize {
        let lanes = self.lanes.values();
        lanes.filter(|l| l.state == LaneState::Holding).count()
    }

    /// Number of registered lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether no lane is registered.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The `(pass, session)` rank of the first waiter in line.
    fn lowest_waiter(&self) -> Option<(f64, u64)> {
        let waiting = self
            .lanes
            .iter()
            .filter(|(_, l)| l.state == LaneState::Waiting);
        // Lanes iterate in id order and `min_by` keeps the first of equal
        // passes: ties go to the lower id.
        waiting
            .map(|(&s, l)| (l.pass, s))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    fn hand_to(&mut self, session: u64) {
        if let Some(lane) = self.lanes.get_mut(&session) {
            lane.state = LaneState::Holding;
            lane.used = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every session always wants service: each step, every slot holder runs
    /// one region and is charged for it. Returns regions served per session.
    fn saturate(queue: &mut FairQueue, sessions: &[u64], steps: usize) -> Vec<usize> {
        for &s in sessions {
            queue.grant(s);
        }
        let mut served = vec![0usize; sessions.len()];
        for _ in 0..steps {
            let holders: Vec<usize> = (0..sessions.len())
                .filter(|&i| queue.holds(sessions[i]))
                .collect();
            for i in holders {
                served[i] += 1;
                queue.charge(sessions[i], 1);
            }
        }
        served
    }

    /// The sessions holding a slot, in id order.
    fn holders(queue: &FairQueue, sessions: &[u64]) -> Vec<u64> {
        sessions
            .iter()
            .copied()
            .filter(|&s| queue.holds(s))
            .collect()
    }

    #[test]
    fn equal_weights_share_the_pool_evenly() {
        let mut q = FairQueue::new(2, 1);
        for s in 0..4 {
            q.register(s, 1);
        }
        let served = saturate(&mut q, &[0, 1, 2, 3], 100);
        assert_eq!(served, vec![50, 50, 50, 50]);
    }

    #[test]
    fn service_is_proportional_to_weight_under_contention() {
        let mut q = FairQueue::new(1, 1);
        q.register(0, 3);
        q.register(1, 1);
        // One slot: the weight-3 session gets ~3/4 of the regions.
        let served = saturate(&mut q, &[0, 1], 200);
        assert_eq!(served[0] + served[1], 200);
        let share = served[0] as f64 / 200.0;
        assert!(
            (share - 0.75).abs() < 0.02,
            "weight-3 share was {share}, expected ~0.75"
        );
        // ...and nobody starves.
        assert!(served[1] > 0);
    }

    #[test]
    fn late_joiners_are_caught_up_not_backlogged() {
        let mut q = FairQueue::new(1, 1);
        q.register(0, 1);
        // Run session 0 alone for a while, accumulating pass.
        let _ = saturate(&mut q, &[0], 50);
        q.register(1, 1);
        // From here on the two split evenly — the newcomer does not
        // monopolize the slot to "repay" regions it never waited for.
        let served = saturate(&mut q, &[0, 1], 40);
        assert_eq!(served, vec![20, 20]);
    }

    #[test]
    fn removal_and_unknown_ids_are_harmless() {
        let mut q = FairQueue::new(1, 1);
        q.register(7, 1);
        assert_eq!(q.len(), 1);
        assert!(q.grant(7));
        // The holder leaves with nobody waiting: the slot just frees.
        assert_eq!(q.remove(7), None);
        assert_eq!(q.remove(99), None);
        assert!(q.is_empty());
        assert_eq!(q.held(), 0);
        assert!(!q.grant(99));
        assert_eq!(q.charge(99, 1), None);
        assert_eq!(q.release(99), None);
        assert!(!q.holds(99));
    }

    #[test]
    fn a_quantum_keeps_the_resident_set_stable_without_breaking_shares() {
        let mut q = FairQueue::new(2, 10);
        let sessions: Vec<u64> = (0..8).collect();
        for &s in &sessions {
            q.register(s, 1);
        }
        // Two slots with a quantum of 10: the resident pair must stay
        // identical for 10 consecutive regions before the slots rotate.
        let _ = saturate(&mut q, &sessions, 1);
        let first = holders(&q, &sessions);
        for _ in 1..9 {
            let _ = saturate(&mut q, &sessions, 1);
            assert_eq!(holders(&q, &sessions), first, "resident set rotated early");
        }
        let _ = saturate(&mut q, &sessions, 1);
        assert_ne!(holders(&q, &sessions), first, "slots never rotated");
        // Long-run service is still an even split.
        let served = saturate(&mut q, &sessions, 380);
        let (min, max) = (served.iter().min().unwrap(), served.iter().max().unwrap());
        assert!(
            max - min <= 10,
            "quantum skew exceeded one quantum: {served:?}"
        );
    }

    #[test]
    fn ties_break_deterministically_by_session_id() {
        let mut q = FairQueue::new(1, 1);
        for s in [3, 2, 1] {
            q.register(s, 1);
        }
        assert!(q.grant(3));
        assert!(!q.grant(2));
        assert!(!q.grant(1));
        // 1 and 2 wait at the same pass: the lower id goes first.
        assert_eq!(q.charge(3, 1), Some(1));
        assert_eq!(q.charge(1, 1), Some(2));
    }

    #[test]
    fn a_holder_keeps_its_slot_for_exactly_one_quantum_and_forever_alone() {
        let mut q = FairQueue::new(1, 4);
        q.register(0, 1);
        assert!(q.grant(0));
        // Nobody waits: the holder never gives its slot up.
        for _ in 0..100 {
            assert_eq!(q.charge(0, 1), None);
        }
        // A waiter arrives (caught up to the holder's pass): the holder still
        // runs exactly one full quantum before the slot moves.
        q.register(1, 1);
        assert!(!q.grant(1));
        for _ in 0..3 {
            assert_eq!(q.charge(0, 1), None);
            assert!(q.holds(0));
        }
        assert_eq!(q.charge(0, 1), Some(1));
        assert!(q.holds(1) && !q.holds(0));
        // A quantum billed at once is the same as one region at a time.
        assert_eq!(q.charge(1, 4), Some(0));
    }

    #[test]
    fn never_more_slots_are_held_than_the_pool_has() {
        let slots = 2;
        let mut q = FairQueue::new(slots, 3);
        let sessions: Vec<u64> = (0..5).collect();
        for (i, &s) in sessions.iter().enumerate() {
            q.register(s, 1 + i as u32 % 3);
        }
        // A fixed pseudo-random walk over every transition.
        let mut x = 0x2545_f491_u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let s = sessions[(x >> 33) as usize % sessions.len()];
            match (x >> 13) % 4 {
                0 => {
                    q.grant(s);
                }
                1 | 2 => {
                    q.charge(s, 1 + (x >> 40) as u32 % 3);
                }
                _ => {
                    q.release(s);
                }
            }
            assert!(q.held() <= slots, "{} slots held", q.held());
            // Work-conserving: a free slot never leaves anyone waiting.
            if q.held() < slots {
                assert!(q.lowest_waiter().is_none(), "a waiter beside a free slot");
            }
        }
    }
}
