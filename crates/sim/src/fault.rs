//! Deterministic fault injection: the `ompss-chaos` fault spec and plan.
//!
//! A [`FaultSpec`] is the plain-data description of a fault stream —
//! seed, per-class rates, forced counts — that a run configuration
//! carries. A [`FaultPlan`] is the per-run oracle built from it: the
//! device layers (fabric, GPU engines, SMP workers) consult it at
//! well-defined injection points. Each decision is a pure function of
//! `(seed, fault class, per-class draw counter)` — no wall clock, no OS
//! randomness — so a faulted run replays *exactly*: the DES kernel
//! serialises all processes, which makes the consultation order itself
//! deterministic, and the fault stream with it. Because every run
//! builds a fresh plan, the same spec replays the same faults however
//! often it runs.
//!
//! The plan only decides *whether* a fault fires; each layer implements
//! the fault's mechanics (dropping a message, failing a kernel launch)
//! and the runtime implements recovery (retry, re-execution,
//! migration). Layers that were handed no plan take the exact legacy
//! code path — zero cost when chaos is off.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The failure classes the injector knows how to produce, one per
/// device-dependent mechanism of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// `net`: a fabric message vanishes after occupying the wire.
    NetDrop = 0,
    /// `net`: a fabric message is delivered twice.
    NetDup = 1,
    /// `net`: a fabric message suffers bounded extra latency.
    NetDelay = 2,
    /// `cudasim`: a kernel launch fails (no effect runs).
    KernelFail = 3,
    /// `cudasim`: an async copy corrupts its payload (bytes must not be
    /// consumed; the copy reports failure instead of silently lying).
    CopyCorrupt = 4,
    /// `cudasim`: a whole device is lost (Xid-style, permanent).
    DeviceLoss = 5,
    /// `sim`: an SMP resource stalls for bounded extra virtual time.
    SimStall = 6,
    /// `sim`: an SMP task times out — its body never runs this attempt.
    SimTimeout = 7,
    /// `runtime`: a whole slave node dies — its GPUs, host space,
    /// in-flight messages and queued tasks — at a planned virtual
    /// instant. Never drawn from the rate stream: the runtime's
    /// `node_loss` knob names one exact `(node, instant)` and reports
    /// the kill through [`FaultPlan::note_injected`].
    NodeLoss = 8,
}

/// All classes, in discriminant order (report/iteration order).
pub const FAULT_CLASSES: [FaultClass; 9] = [
    FaultClass::NetDrop,
    FaultClass::NetDup,
    FaultClass::NetDelay,
    FaultClass::KernelFail,
    FaultClass::CopyCorrupt,
    FaultClass::DeviceLoss,
    FaultClass::SimStall,
    FaultClass::SimTimeout,
    FaultClass::NodeLoss,
];

impl FaultClass {
    /// Stable lowercase name (JSON report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::NetDrop => "net_drop",
            FaultClass::NetDup => "net_dup",
            FaultClass::NetDelay => "net_delay",
            FaultClass::KernelFail => "kernel_fail",
            FaultClass::CopyCorrupt => "copy_corrupt",
            FaultClass::DeviceLoss => "device_loss",
            FaultClass::SimStall => "sim_stall",
            FaultClass::SimTimeout => "sim_timeout",
            FaultClass::NodeLoss => "node_loss",
        }
    }
}

const N: usize = FAULT_CLASSES.len();

/// What a fault stream may inject: plain data, so a configuration that
/// carries it stays a pure description of the run.
///
/// The default is seed 1 at rate 0, which can never fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic stream (`OMPSS_FAULT_SEED`).
    pub seed: u64,
    /// The headline rate (`OMPSS_FAULT_RATE`) [`new`](FaultSpec::new)
    /// derived `rates` from; only the `Display` tag reads it.
    rate: f64,
    /// Probability that one draw of class `c` fires, indexed by
    /// `FaultClass as usize`. Each must be in `[0, 1]`.
    pub rates: [f64; N],
    /// The first `forced[c]` draws of class `c` fire unconditionally —
    /// targeted tests script exact fault sequences with this.
    pub forced: [u64; N],
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::quiet(1)
    }
}

impl FaultSpec {
    /// Derive per-class rates from one headline `rate`: message-level
    /// and kernel-level faults fire at the headline rate,
    /// duplications/corruptions at half of it, device loss and timeouts
    /// far more rarely — losing a device per message would leave
    /// nothing to recover onto.
    pub fn new(seed: u64, rate: f64) -> Self {
        let mut rates = [0.0; N];
        rates[FaultClass::NetDrop as usize] = rate;
        rates[FaultClass::NetDup as usize] = rate / 2.0;
        rates[FaultClass::NetDelay as usize] = rate;
        rates[FaultClass::KernelFail as usize] = rate;
        rates[FaultClass::CopyCorrupt as usize] = rate / 2.0;
        rates[FaultClass::DeviceLoss as usize] = rate / 8.0;
        rates[FaultClass::SimStall as usize] = rate;
        rates[FaultClass::SimTimeout as usize] = rate / 4.0;
        // NodeLoss stays at rate 0: whole-node kills are planned, never
        // drawn — keeping the rate-sweep streams of the other classes
        // byte-identical to pre-node-loss plans.
        rates[FaultClass::NodeLoss as usize] = 0.0;
        FaultSpec { seed, rate, rates, forced: [0; N] }
    }

    /// A spec that never fires on its own — combine with
    /// [`with_forced`](FaultSpec::with_forced) to script exact faults.
    pub fn quiet(seed: u64) -> Self {
        Self::new(seed, 0.0)
    }

    /// Override one class's rate.
    pub fn with_rate(mut self, class: FaultClass, rate: f64) -> Self {
        self.rates[class as usize] = rate;
        self
    }

    /// Force the first `n` draws of `class` to fire.
    pub fn with_forced(mut self, class: FaultClass, n: u64) -> Self {
        self.forced[class as usize] = n;
        self
    }

    /// Can any draw of this spec fire? A spec that cannot arms nothing.
    pub fn can_fire(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0) || self.forced.iter().any(|&n| n > 0)
    }

    /// Every class rate must be a probability (NaN is not one).
    pub fn check(&self) -> Result<(), String> {
        match FAULT_CLASSES.iter().find(|&&c| !(0.0..=1.0).contains(&self.rates[c as usize])) {
            Some(&c) => {
                Err(format!("fault rate {}={} is not in [0, 1]", c.name(), self.rates[c as usize]))
            }
            None => Ok(()),
        }
    }
}

/// `fault_seed=S fault_rate=R`, then every class rate that differs from
/// the headline derivation and every forced count — enough to rebuild
/// the spec from an error message.
impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault_seed={} fault_rate={}", self.seed, self.rate)?;
        let derived = FaultSpec::new(self.seed, self.rate).rates;
        for c in FAULT_CLASSES {
            let (i, name) = (c as usize, c.name());
            if self.rates[i].to_bits() != derived[i].to_bits() {
                write!(f, " {name}={}", self.rates[i])?;
            }
            if self.forced[i] > 0 {
                write!(f, " {name}_forced={}", self.forced[i])?;
            }
        }
        Ok(())
    }
}

/// The per-run fault oracle: a [`FaultSpec`] plus the run's draw and
/// injection counters, shared by every injection point of one run
/// (`Arc`-cloned into the fabric, each GPU device, and the SMP
/// execution path).
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Draws consulted per class (the deterministic stream position).
    draws: [AtomicU64; N],
    /// Faults actually injected per class.
    injected: [AtomicU64; N],
}

impl FaultPlan {
    /// A fresh plan at the start of `spec`'s stream.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec, draws: zeros(), injected: zeros() }
    }

    /// Record that a planned (non-drawn) fault of `class` was injected —
    /// the node-kill daemon calls this at the kill instant so the stats
    /// count the loss without consuming a rate-stream draw.
    pub fn note_injected(&self, class: FaultClass) {
        self.injected[class as usize].fetch_add(1, Relaxed);
    }

    /// Should the next fault of `class` fire? Pure in `(seed, class,
    /// draw index)`; each call advances that class's draw counter.
    pub fn decide(&self, class: FaultClass) -> bool {
        let c = class as usize;
        let i = self.draws[c].fetch_add(1, Relaxed);
        let fire = if i < self.spec.forced[c] {
            true
        } else {
            unit(splitmix64(
                self.spec.seed
                    ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ i.wrapping_mul(2)
                    ^ 1,
            )) < self.spec.rates[c]
        };
        if fire {
            self.injected[c].fetch_add(1, Relaxed);
        }
        fire
    }

    /// A deterministic magnitude in `[0, 1)` for a bounded fault (extra
    /// delay, stall length). Its own stream, so interleaving decide and
    /// fraction calls cannot shift either.
    pub fn fraction(&self, class: FaultClass) -> f64 {
        let c = class as usize;
        let i = self.draws[c].load(Relaxed);
        unit(splitmix64(
            self.spec.seed ^ (c as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i.wrapping_mul(2),
        ))
    }

    /// Per-class injection counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: std::array::from_fn(|c| self.injected[c].load(Relaxed)),
            draws: std::array::from_fn(|c| self.draws[c].load(Relaxed)),
        }
    }
}

fn zeros() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Frozen per-class injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected, indexed by `FaultClass as usize`.
    pub injected: [u64; N],
    /// Injection points consulted, indexed by `FaultClass as usize`.
    pub draws: [u64; N],
}

impl FaultStats {
    /// Injections of one class.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.injected[class as usize]
    }

    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// Cluster-wide guard that keeps at least one CUDA device alive: device
/// loss is only allowed while more than one survivor remains, so
/// migration always has somewhere to go and "graceful degradation"
/// cannot degrade to "no GPUs at all".
#[derive(Debug)]
pub struct DeviceFuse {
    survivors: AtomicU64,
}

impl DeviceFuse {
    /// A fuse over `devices` CUDA devices.
    pub fn new(devices: u64) -> Arc<Self> {
        Arc::new(DeviceFuse { survivors: AtomicU64::new(devices) })
    }

    /// Try to claim one device loss. Fails (returns `false`) when it
    /// would leave fewer than one survivor.
    pub fn try_claim(&self) -> bool {
        let mut cur = self.survivors.load(Relaxed);
        loop {
            if cur <= 1 {
                return false;
            }
            match self.survivors.compare_exchange(cur, cur - 1, Relaxed, Relaxed) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Devices still alive.
    pub fn survivors(&self) -> u64 {
        self.survivors.load(Relaxed)
    }
}

/// `splitmix64` mix step — the same generator the scheduler's tie-break
/// seeding uses, here keyed per (seed, class, draw).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a u64 to `[0, 1)` with 53-bit precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: FaultSpec) -> FaultPlan {
        FaultPlan::new(spec)
    }

    #[test]
    fn decide_stream_is_deterministic() {
        let a = plan(FaultSpec::new(42, 0.3));
        let b = plan(FaultSpec::new(42, 0.3));
        let sa: Vec<bool> = (0..256).map(|_| a.decide(FaultClass::NetDrop)).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.decide(FaultClass::NetDrop)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f), "rate 0.3 over 256 draws must fire at least once");
        assert!(!sa.iter().all(|&f| f), "rate 0.3 must not fire every time");
    }

    #[test]
    fn classes_draw_independent_streams() {
        let p = plan(FaultSpec::new(7, 0.5));
        let drops: Vec<bool> = (0..64).map(|_| p.decide(FaultClass::NetDrop)).collect();
        let dups: Vec<bool> = (0..64).map(|_| p.decide(FaultClass::NetDup)).collect();
        assert_ne!(drops, dups);
        let q = plan(FaultSpec::new(7, 0.5));
        // Interleaved consultation must not shift either stream.
        let mut drops2 = Vec::new();
        let mut dups2 = Vec::new();
        for _ in 0..64 {
            drops2.push(q.decide(FaultClass::NetDrop));
            dups2.push(q.decide(FaultClass::NetDup));
        }
        assert_eq!(drops, drops2);
        assert_eq!(dups, dups2);
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let p = plan(FaultSpec::new(1, 0.0));
        assert!((0..128).all(|_| !p.decide(FaultClass::KernelFail)));
        let p = plan(FaultSpec::new(1, 1.0));
        assert!((0..128).all(|_| p.decide(FaultClass::KernelFail)));
        assert_eq!(p.stats().count(FaultClass::KernelFail), 128);
    }

    #[test]
    fn forced_draws_fire_then_revert_to_rate() {
        let p = plan(FaultSpec::quiet(9).with_forced(FaultClass::NetDrop, 3));
        let s: Vec<bool> = (0..8).map(|_| p.decide(FaultClass::NetDrop)).collect();
        assert_eq!(s, [true, true, true, false, false, false, false, false]);
        assert_eq!(p.stats().count(FaultClass::NetDrop), 3);
        assert_eq!(p.stats().draws[FaultClass::NetDrop as usize], 8);
    }

    #[test]
    fn fraction_is_bounded_and_deterministic() {
        let p = plan(FaultSpec::new(3, 0.5));
        let q = plan(FaultSpec::new(3, 0.5));
        for _ in 0..32 {
            let (fp, fq) = (p.fraction(FaultClass::NetDelay), q.fraction(FaultClass::NetDelay));
            assert_eq!(fp, fq);
            assert!((0.0..1.0).contains(&fp));
            p.decide(FaultClass::NetDelay);
            q.decide(FaultClass::NetDelay);
        }
    }

    #[test]
    fn node_loss_is_noted_never_drawn() {
        let p = plan(FaultSpec::new(11, 1.0));
        assert!(!p.decide(FaultClass::NodeLoss), "node loss never rides the rate stream");
        assert_eq!(p.stats().count(FaultClass::NodeLoss), 0);
        p.note_injected(FaultClass::NodeLoss);
        assert_eq!(p.stats().count(FaultClass::NodeLoss), 1);
    }

    #[test]
    fn spec_arms_only_when_it_can_fire() {
        assert!(!FaultSpec::default().can_fire());
        assert!(!FaultSpec::new(42, 0.0).can_fire());
        assert!(FaultSpec::new(42, 0.01).can_fire());
        assert!(FaultSpec::quiet(3).with_rate(FaultClass::NetDup, 0.5).can_fire());
        assert!(FaultSpec::quiet(3).with_forced(FaultClass::KernelFail, 1).can_fire());
    }

    #[test]
    fn every_class_rate_must_be_a_probability() {
        assert_eq!(FaultSpec::new(1, 1.0).check(), Ok(()));
        assert_eq!(
            FaultSpec::new(1, 1.5).check(),
            Err("fault rate net_drop=1.5 is not in [0, 1]".into())
        );
        let nan = FaultSpec::quiet(1).with_rate(FaultClass::SimStall, f64::NAN);
        assert_eq!(nan.check(), Err("fault rate sim_stall=NaN is not in [0, 1]".into()));
        assert!(FaultSpec::quiet(1).with_rate(FaultClass::DeviceLoss, -0.1).check().is_err());
    }

    #[test]
    fn display_names_the_whole_spec() {
        assert_eq!(FaultSpec::new(42, 0.05).to_string(), "fault_seed=42 fault_rate=0.05");
        let scripted = FaultSpec::quiet(77)
            .with_rate(FaultClass::NetDrop, 0.25)
            .with_forced(FaultClass::KernelFail, 2);
        assert_eq!(
            scripted.to_string(),
            "fault_seed=77 fault_rate=0 net_drop=0.25 kernel_fail_forced=2"
        );
    }

    #[test]
    fn fuse_keeps_one_survivor() {
        let f = DeviceFuse::new(3);
        assert!(f.try_claim());
        assert!(f.try_claim());
        assert!(!f.try_claim(), "last survivor must be protected");
        assert_eq!(f.survivors(), 1);
    }
}
