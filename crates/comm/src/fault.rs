//! Deterministic fault injection for the fabric.
//!
//! The paper's correctness claims (Props 3.1–3.3) say every rank computes
//! a deadlock-free schedule locally — but the in-process [`Fabric`] is a
//! perfect transport, so nothing ever exercised those claims under
//! adversity. This module adds the adversity: a declarative [`FaultSpec`]
//! (per-link rates, deposit windows, `(src, dst, ctx, tag)` predicates)
//! compiled into a [`FaultPlane`] that the fabric consults on every
//! deposit and that can drop, duplicate, delay-by-N-polls, or reorder
//! envelopes.
//!
//! Every decision is a **pure function** of `(seed, rule, src, dst, ctx,
//! tag, link_seq)` where `link_seq` is the per-link deposit counter — no
//! wall-clock entropy, no thread-schedule dependence. The same seed
//! always injures the same envelopes, which is what makes chaos-test
//! failures reproducible (`CHAOS_SEED=<seed>`).
//!
//! Acknowledgement envelopes ([`crate::envelope::EnvKind::Ack`]) never
//! pass through the plane: acks are the reliable layer's control plane,
//! and a lossy control plane would reintroduce the two-generals tail the
//! retry protocol is designed to avoid (see `reliable.rs`).
//!
//! [`Fabric`]: crate::fabric::Fabric

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::envelope::{Envelope, Tag};

/// The per-seed deterministic random source of the fault plane.
///
/// Not a stream generator: [`FaultRng::draw`] is a stateless hash
/// (splitmix64-style finalizer) of the seed and the caller's salt words,
/// mapped to a uniform `[0, 1)` draw. Statelessness is the point — the
/// decision for deposit `n` on a link does not depend on how many other
/// links were exercised first, so multi-threaded runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRng {
    seed: u64,
}

impl FaultRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng { seed }
    }

    /// The seed this generator draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` determined by the seed and `salt`.
    pub fn draw(&self, salt: &[u64]) -> f64 {
        let mut h = Self::mix(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        for &w in salt {
            h = Self::mix(h ^ w.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1));
        }
        // 53 high bits -> f64 mantissa.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// What the plane does to an envelope a rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the envelope.
    Drop,
    /// Deliver the envelope and enqueue a byte-identical copy, released
    /// after `delay_copy_polls` receiver polls (0 = immediately, i.e. the
    /// copy trails the original in the same queue).
    Duplicate {
        /// Receiver polls before the copy is released.
        delay_copy_polls: u32,
    },
    /// Hold the envelope back for `polls` receiver polls.
    Delay {
        /// Receiver polls before the envelope is released.
        polls: u32,
    },
    /// Stash the envelope so that later traffic to the same destination
    /// overtakes it; released by the next deposit or poll on that
    /// destination.
    Reorder,
}

/// Which deposits a [`FaultRule`] applies to: any combination of source
/// rank, destination rank, context, and a half-open tag range. `None`
/// fields match everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkSel {
    /// Sending rank, or any.
    pub src: Option<usize>,
    /// Destination rank, or any.
    pub dst: Option<usize>,
    /// Context id, or any.
    pub ctx: Option<u32>,
    /// Half-open tag range `[lo, hi)`, or any tag.
    pub tags: Option<(Tag, Tag)>,
}

impl LinkSel {
    /// Match every deposit.
    pub fn any() -> Self {
        LinkSel::default()
    }

    /// Match only the directed link `src -> dst`.
    pub fn link(src: usize, dst: usize) -> Self {
        LinkSel {
            src: Some(src),
            dst: Some(dst),
            ..LinkSel::default()
        }
    }

    /// Restrict to deposits from `src`.
    pub fn from(mut self, src: usize) -> Self {
        self.src = Some(src);
        self
    }

    /// Restrict to deposits to `dst`.
    pub fn to(mut self, dst: usize) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Restrict to context `ctx`.
    pub fn on_ctx(mut self, ctx: u32) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Restrict to tags in the half-open range `[lo, hi)`. This is how
    /// chaos specs scope adversity to the cartesian data plane
    /// (`0x7A00_0000..0x7F00_0000`) while leaving setup collectives alone.
    pub fn tags(mut self, lo: Tag, hi: Tag) -> Self {
        self.tags = Some((lo, hi));
        self
    }

    /// True if a deposit with these coordinates is selected.
    #[inline]
    pub fn matches(&self, src: usize, dst: usize, ctx: u32, tag: Tag) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.ctx.is_none_or(|c| c == ctx)
            && self.tags.is_none_or(|(lo, hi)| tag >= lo && tag < hi)
    }
}

/// One declarative fault rule: where it applies, when (a per-link deposit
/// window), how often, and what it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Which deposits the rule applies to.
    pub sel: LinkSel,
    /// Half-open per-link deposit-index window `[lo, hi)`; `None` = always.
    pub window: Option<(u64, u64)>,
    /// Probability in `[0, 1]` that the rule fires on a selected deposit.
    pub rate: f64,
    /// What happens when it fires.
    pub action: FaultAction,
}

impl FaultRule {
    /// A rule with no window that always applies to `sel` at `rate`.
    pub fn new(sel: LinkSel, rate: f64, action: FaultAction) -> Self {
        FaultRule {
            sel,
            window: None,
            rate,
            action,
        }
    }

    /// Restrict the rule to per-link deposit indices in `[lo, hi)`.
    pub fn window(mut self, lo: u64, hi: u64) -> Self {
        self.window = Some((lo, hi));
        self
    }
}

/// A declarative, seeded fault scenario: an ordered rule list evaluated
/// first-match-wins on every deposit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    rng: FaultRng,
    rules: Vec<FaultRule>,
}

impl FaultSpec {
    /// An empty (harmless) spec with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            rng: FaultRng::new(seed),
            rules: Vec::new(),
        }
    }

    /// The seed this spec draws from.
    pub fn seed(&self) -> u64 {
        self.rng.seed()
    }

    /// The rule list, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Append a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Append a drop rule on `sel` at `rate`.
    pub fn drop_rate(self, sel: LinkSel, rate: f64) -> Self {
        self.with_rule(FaultRule::new(sel, rate, FaultAction::Drop))
    }

    /// Append a duplicate rule on `sel` at `rate`; copies are released
    /// after `delay_copy_polls` receiver polls.
    pub fn dup_rate(self, sel: LinkSel, rate: f64, delay_copy_polls: u32) -> Self {
        self.with_rule(FaultRule::new(
            sel,
            rate,
            FaultAction::Duplicate { delay_copy_polls },
        ))
    }

    /// Append a delay rule on `sel` at `rate`, holding envelopes for
    /// `polls` receiver polls.
    pub fn delay_rate(self, sel: LinkSel, rate: f64, polls: u32) -> Self {
        self.with_rule(FaultRule::new(sel, rate, FaultAction::Delay { polls }))
    }

    /// Append a reorder rule on `sel` at `rate`.
    pub fn reorder_rate(self, sel: LinkSel, rate: f64) -> Self {
        self.with_rule(FaultRule::new(sel, rate, FaultAction::Reorder))
    }

    /// Decide what happens to deposit number `link_seq` (0-based, counted
    /// per directed link) of `(src, dst, ctx, tag)`. Pure: the same
    /// arguments always produce the same decision. First matching rule
    /// whose draw lands under its rate wins.
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        ctx: u32,
        tag: Tag,
        link_seq: u64,
    ) -> Option<FaultAction> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.sel.matches(src, dst, ctx, tag) {
                continue;
            }
            if let Some((lo, hi)) = rule.window {
                if link_seq < lo || link_seq >= hi {
                    continue;
                }
            }
            let draw = self.rng.draw(&[
                idx as u64, src as u64, dst as u64, ctx as u64, tag as u64, link_seq,
            ]);
            if draw < rule.rate {
                return Some(rule.action);
            }
        }
        None
    }
}

/// Counters of what a [`FaultPlane`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Envelopes discarded.
    pub drops: u64,
    /// Duplicate copies created.
    pub dups: u64,
    /// Envelopes deferred by N polls.
    pub delays: u64,
    /// Envelopes stashed for overtaking.
    pub reorders: u64,
    /// Envelopes currently held (delayed or stashed), awaiting release.
    pub in_flight: u64,
}

/// A delayed envelope: remaining receiver polls before release.
struct Held {
    polls_left: u32,
    env: Envelope,
}

/// Per-destination mutable plane state.
#[derive(Default)]
struct DstState {
    /// Envelopes deferred by a [`FaultAction::Delay`] or delayed duplicate
    /// copies, waiting out their poll count.
    delayed: Vec<Held>,
    /// Envelopes stashed by [`FaultAction::Reorder`], released behind the
    /// next deposit (or poll) on this destination.
    stashed: Vec<Envelope>,
}

impl DstState {
    fn is_empty(&self) -> bool {
        self.delayed.is_empty() && self.stashed.is_empty()
    }
}

/// The compiled, installed form of a [`FaultSpec`]: per-link deposit
/// counters plus per-destination held-envelope queues. The fabric routes
/// every data deposit through [`FaultPlane::route`] and pumps
/// [`FaultPlane::poll`] from the reliable layer's receive loop.
pub struct FaultPlane {
    spec: FaultSpec,
    p: usize,
    /// Per-directed-link deposit counters, `src * p + dst`.
    link_seq: Vec<AtomicU64>,
    /// Per-destination held envelopes.
    dst: Vec<Mutex<DstState>>,
    drops: AtomicU64,
    dups: AtomicU64,
    delays: AtomicU64,
    reorders: AtomicU64,
    in_flight: AtomicU64,
}

/// Byte-identical copy of an envelope (payload re-homed to a plain,
/// unpooled buffer — duplicates are adversity, not hot-path traffic).
fn clone_env(env: &Envelope) -> Envelope {
    Envelope {
        ctx: env.ctx,
        src: env.src,
        tag: env.tag,
        rel: env.rel,
        data: env.data.as_ref().to_vec().into(),
    }
}

impl FaultPlane {
    /// Compile `spec` for a universe of `p` ranks.
    pub fn new(spec: FaultSpec, p: usize) -> Self {
        FaultPlane {
            spec,
            p,
            link_seq: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            dst: (0..p).map(|_| Mutex::new(DstState::default())).collect(),
            drops: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            reorders: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        }
    }

    /// The spec this plane was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Counters of injected faults so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            dups: self.dups.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            reorders: self.reorders.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }

    /// Route one deposited envelope. Returns the envelopes to forward to
    /// `dst` **in order**, plus whether a fault was applied. Dropped
    /// or held envelopes simply do not appear in the output; previously
    /// stashed (reordered) envelopes are flushed behind this deposit so
    /// the overtaking actually happens.
    pub fn route(&self, dst: usize, env: Envelope) -> (Vec<Envelope>, bool) {
        let seq = self.link_seq[env.src * self.p + dst].fetch_add(1, Ordering::Relaxed);
        let action = self.spec.decide(env.src, dst, env.ctx, env.tag, seq);
        let faulted = action.is_some();
        let mut out = Vec::new();
        let mut state = self.dst[dst].lock();
        match action {
            None => out.push(env),
            Some(FaultAction::Drop) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
            Some(FaultAction::Duplicate { delay_copy_polls }) => {
                self.dups.fetch_add(1, Ordering::Relaxed);
                let copy = clone_env(&env);
                out.push(env);
                if delay_copy_polls == 0 {
                    out.push(copy);
                } else {
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                    state.delayed.push(Held {
                        polls_left: delay_copy_polls,
                        env: copy,
                    });
                }
            }
            Some(FaultAction::Delay { polls }) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                if polls == 0 {
                    out.push(env);
                } else {
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                    state.delayed.push(Held {
                        polls_left: polls,
                        env,
                    });
                }
            }
            Some(FaultAction::Reorder) => {
                self.reorders.fetch_add(1, Ordering::Relaxed);
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                state.stashed.push(env);
                return (out, faulted); // nothing overtakes yet; flushed later
            }
        }
        // Anything stashed for reordering is now overtaken: release it
        // behind this deposit's output.
        if !state.stashed.is_empty() {
            let n = state.stashed.len() as u64;
            self.in_flight.fetch_sub(n, Ordering::Relaxed);
            out.append(&mut state.stashed);
        }
        (out, faulted)
    }

    /// One receiver poll on `dst`: ages delayed envelopes and returns
    /// everything now due (including any reorder stash — polling makes
    /// progress, so held traffic must eventually drain).
    pub fn poll(&self, dst: usize) -> Vec<Envelope> {
        let mut state = self.dst[dst].lock();
        if state.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut i = 0;
        while i < state.delayed.len() {
            state.delayed[i].polls_left = state.delayed[i].polls_left.saturating_sub(1);
            if state.delayed[i].polls_left == 0 {
                out.push(state.delayed.swap_remove(i).env);
            } else {
                i += 1;
            }
        }
        out.append(&mut state.stashed);
        self.in_flight
            .fetch_sub(out.len() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: Tag) -> Envelope {
        Envelope::new(0, src, tag, vec![tag as u8])
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::new(42).drop_rate(LinkSel::any(), 0.5);
        let a: Vec<_> = (0..64).map(|i| spec.decide(0, 1, 0, 7, i)).collect();
        let b: Vec<_> = (0..64).map(|i| spec.decide(0, 1, 0, 7, i)).collect();
        assert_eq!(a, b);
        let other = FaultSpec::new(43).drop_rate(LinkSel::any(), 0.5);
        let c: Vec<_> = (0..64).map(|i| other.decide(0, 1, 0, 7, i)).collect();
        assert_ne!(a, c, "different seeds should injure different deposits");
    }

    #[test]
    fn rates_are_calibrated() {
        let spec = FaultSpec::new(7).drop_rate(LinkSel::any(), 0.2);
        let hits = (0..20_000)
            .filter(|&i| spec.decide(0, 1, 0, 3, i).is_some())
            .count();
        // 20k Bernoulli(0.2) draws: expect 4000, allow +-5 sigma (~283).
        assert!((3700..=4300).contains(&hits), "got {hits} drops");
    }

    #[test]
    fn selectors_scope_rules() {
        let spec = FaultSpec::new(1).drop_rate(
            LinkSel::link(0, 1).on_ctx(2).tags(0x7A00_0000, 0x7F00_0000),
            1.0,
        );
        assert!(spec.decide(0, 1, 2, 0x7A00_0001, 0).is_some());
        assert!(spec.decide(0, 1, 2, 0x7F00_0000, 0).is_none(), "tag hi end");
        assert!(spec.decide(0, 1, 1, 0x7A00_0001, 0).is_none(), "wrong ctx");
        assert!(spec.decide(1, 0, 2, 0x7A00_0001, 0).is_none(), "wrong link");
    }

    #[test]
    fn windows_scope_rules_per_link_deposit_index() {
        let spec = FaultSpec::new(1)
            .with_rule(FaultRule::new(LinkSel::any(), 1.0, FaultAction::Drop).window(2, 4));
        assert!(spec.decide(0, 1, 0, 0, 1).is_none());
        assert!(spec.decide(0, 1, 0, 0, 2).is_some());
        assert!(spec.decide(0, 1, 0, 0, 3).is_some());
        assert!(spec.decide(0, 1, 0, 0, 4).is_none());
    }

    #[test]
    fn first_matching_rule_wins() {
        let spec = FaultSpec::new(9)
            .drop_rate(LinkSel::link(0, 1), 1.0)
            .dup_rate(LinkSel::any(), 1.0, 0);
        assert_eq!(spec.decide(0, 1, 0, 0, 0), Some(FaultAction::Drop));
        assert!(matches!(
            spec.decide(1, 0, 0, 0, 0),
            Some(FaultAction::Duplicate { .. })
        ));
    }

    #[test]
    fn plane_drops_and_counts() {
        let plane = FaultPlane::new(FaultSpec::new(3).drop_rate(LinkSel::any(), 1.0), 2);
        let (out, faulted) = plane.route(1, env(0, 5));
        assert!(out.is_empty());
        assert!(faulted);
        assert_eq!(plane.stats().drops, 1);
    }

    #[test]
    fn plane_duplicates_immediately() {
        let plane = FaultPlane::new(FaultSpec::new(3).dup_rate(LinkSel::any(), 1.0, 0), 2);
        let (out, faulted) = plane.route(1, env(0, 5));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].data, out[1].data);
        assert_eq!(out[0].tag, out[1].tag);
        assert!(faulted);
        assert_eq!(plane.stats().dups, 1);
    }

    #[test]
    fn delayed_envelopes_release_after_n_polls() {
        let plane = FaultPlane::new(FaultSpec::new(3).delay_rate(LinkSel::any(), 1.0, 3), 2);
        let (out, _) = plane.route(1, env(0, 8));
        assert!(out.is_empty());
        assert_eq!(plane.stats().in_flight, 1);
        assert!(plane.poll(1).is_empty());
        assert!(plane.poll(1).is_empty());
        let released = plane.poll(1);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].tag, 8);
        assert_eq!(plane.stats().in_flight, 0);
    }

    #[test]
    fn reordered_envelope_is_overtaken_by_next_deposit() {
        let spec = FaultSpec::new(3)
            .with_rule(FaultRule::new(LinkSel::any(), 1.0, FaultAction::Reorder).window(0, 1));
        let plane = FaultPlane::new(spec, 2);
        let (out, faulted) = plane.route(1, env(0, 1));
        assert!(out.is_empty());
        assert!(faulted);
        assert_eq!(plane.stats().reorders, 1);
        // Second deposit on the link is outside the window: it flows
        // through and flushes the stash behind itself.
        let (out, faulted) = plane.route(1, env(0, 2));
        assert!(!faulted);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tag, 2, "later deposit overtakes");
        assert_eq!(out[1].tag, 1, "stashed envelope trails");
    }

    #[test]
    fn poll_flushes_reorder_stash() {
        let plane = FaultPlane::new(FaultSpec::new(3).reorder_rate(LinkSel::any(), 1.0), 2);
        let (out, _) = plane.route(1, env(0, 4));
        assert!(out.is_empty());
        let released = plane.poll(1);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].tag, 4);
    }
}
