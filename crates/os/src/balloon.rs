//! Hot-plug ballooning policy.
//!
//! Section III lists "modifying the OS kernel so that memory can be
//! hot-plugged and hot-removed as required" among the system's components.
//! This module supplies the *when*: a watermark policy that watches a
//! node's memory pressure and decides when to borrow another zone from the
//! cluster (hot-plug) and when to give zones back (hot-remove).
//!
//! The policy is deliberately hysteretic — grow below the low watermark
//! (15 % of capacity free), shrink only above the high watermark (60 %),
//! one zone at a time — so stable demand never causes reservation churn
//! (each reservation is a software round trip; thrashing them would
//! reintroduce exactly the overhead the architecture avoids). The
//! watermarks are constants; the caller chooses the zone size.

/// Grow when free memory falls below this fraction of current capacity.
const LOW_WATERMARK: f64 = 0.15;

/// Shrink when free memory exceeds this fraction of current capacity.
const HIGH_WATERMARK: f64 = 0.60;

/// What the kernel should do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalloonAction {
    /// Reserve one more zone of the balloon's zone size.
    Grow,
    /// Release one previously borrowed zone.
    Shrink,
    /// Do nothing.
    Hold,
}

/// The per-node ballooning policy state.
#[derive(Debug, Clone, Copy)]
pub struct Balloon {
    /// Zone granularity in frames (one grow/shrink step).
    zone_frames: u64,
    /// Frames of the node's own memory available to this workload.
    local_frames: u64,
    /// Zones currently borrowed.
    zones: u64,
}

impl Balloon {
    /// Policy for a node contributing `local_frames` of its own memory,
    /// growing and shrinking in zones of `zone_frames`.
    ///
    /// # Panics
    /// Panics if the zone size is zero.
    pub fn new(zone_frames: u64, local_frames: u64) -> Balloon {
        assert!(zone_frames > 0, "zone granularity must be non-zero");
        Balloon {
            zone_frames,
            local_frames,
            zones: 0,
        }
    }

    /// Total frames currently available (local + borrowed).
    pub fn capacity(&self) -> u64 {
        self.local_frames + self.zones * self.zone_frames
    }

    /// Zones currently borrowed.
    pub fn zones(&self) -> u64 {
        self.zones
    }

    /// Decide given the frames the workload currently occupies.
    ///
    /// The decision is *pure*; callers apply it (reserve/release through
    /// the cluster directory) and then record it with [`Balloon::applied`].
    pub fn decide(&self, used_frames: u64) -> BalloonAction {
        let capacity = self.capacity();
        let free = capacity.saturating_sub(used_frames) as f64;
        let frac = free / capacity as f64;
        if frac < LOW_WATERMARK || used_frames >= capacity {
            return BalloonAction::Grow;
        }
        if self.zones > 0 && frac > HIGH_WATERMARK {
            // Only shrink if the zone's removal keeps us above the low
            // watermark — otherwise we would grow right back (churn).
            let after = self.capacity() - self.zone_frames;
            let after_free = after.saturating_sub(used_frames) as f64;
            if after > 0 && after_free / after as f64 > LOW_WATERMARK {
                return BalloonAction::Shrink;
            }
        }
        BalloonAction::Hold
    }

    /// Record that the decided action was carried out.
    ///
    /// # Panics
    /// Panics on `Shrink` with no borrowed zones.
    pub fn applied(&mut self, action: BalloonAction) {
        match action {
            BalloonAction::Grow => self.zones += 1,
            BalloonAction::Shrink => {
                assert!(self.zones > 0, "shrink with no borrowed zones");
                self.zones -= 1;
            }
            BalloonAction::Hold => {}
        }
    }

    /// Drive the policy to a fixed point for the given demand: apply Grow/
    /// Shrink until it holds. Returns the number of grows and shrinks.
    pub fn settle(&mut self, used_frames: u64) -> (u64, u64) {
        let (mut grows, mut shrinks) = (0, 0);
        loop {
            match self.decide(used_frames) {
                BalloonAction::Grow => {
                    self.applied(BalloonAction::Grow);
                    grows += 1;
                }
                BalloonAction::Shrink => {
                    self.applied(BalloonAction::Shrink);
                    shrinks += 1;
                }
                BalloonAction::Hold => return (grows, shrinks),
            }
            assert!(grows + shrinks < 100_000, "balloon policy diverged");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balloon() -> Balloon {
        // 1000 local frames, 500-frame zones.
        Balloon::new(500, 1_000)
    }

    #[test]
    fn grows_under_pressure() {
        let mut b = balloon();
        assert_eq!(b.decide(900), BalloonAction::Grow); // 10% free < 15%
        b.applied(BalloonAction::Grow);
        assert_eq!(b.capacity(), 1_500);
        assert_eq!(b.decide(900), BalloonAction::Hold); // 40% free
    }

    #[test]
    fn holds_in_the_comfort_band() {
        let b = balloon();
        for used in [300, 500, 700, 840] {
            assert_eq!(b.decide(used), BalloonAction::Hold, "used {used}");
        }
    }

    #[test]
    fn shrinks_when_idle_but_never_below_local() {
        let mut b = balloon();
        b.applied(BalloonAction::Grow);
        b.applied(BalloonAction::Grow); // capacity 2000
        assert_eq!(b.decide(100), BalloonAction::Shrink); // 95% free
        b.applied(BalloonAction::Shrink);
        assert_eq!(b.decide(100), BalloonAction::Shrink);
        b.applied(BalloonAction::Shrink);
        // No zones left: never asks to shrink local memory away.
        assert_eq!(b.zones(), 0);
        assert_eq!(b.decide(100), BalloonAction::Hold);
    }

    #[test]
    fn no_churn_for_stable_demand() {
        // At every demand level, settling then re-deciding must Hold:
        // hysteresis means a fixed demand never grows and shrinks forever.
        for used in (0..3_000).step_by(37) {
            let mut b = balloon();
            b.settle(used);
            assert_eq!(b.decide(used), BalloonAction::Hold, "churn at used={used}");
        }
    }

    #[test]
    fn settle_reaches_demand_plus_headroom() {
        let mut b = balloon();
        let (grows, shrinks) = b.settle(2_400);
        assert_eq!(shrinks, 0);
        assert!(grows >= 4, "needs at least 4 zones, got {grows}");
        assert!(b.capacity() as f64 * (1.0 - LOW_WATERMARK) >= 2_400.0);
        // Demand drops: zones come back.
        let (_, shrinks) = b.settle(200);
        assert!(shrinks >= 3, "idle must release, got {shrinks}");
    }

    #[test]
    fn demand_spike_and_decay_cycle() {
        let mut b = balloon();
        let mut total_grows = 0;
        let mut total_shrinks = 0;
        // Demand wave: up to 4000, back to 100, twice.
        for &used in &[500, 2_000, 4_000, 2_000, 100, 500, 4_000, 100] {
            let (g, s) = b.settle(used);
            total_grows += g;
            total_shrinks += s;
        }
        assert!(total_grows >= 2, "waves must grow");
        assert!(total_shrinks >= 2, "waves must shrink");
        // Ends idle: minimal footprint.
        assert!(b.zones() <= 1);
    }
}
