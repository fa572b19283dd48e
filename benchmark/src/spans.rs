//! In-memory span recorder for the traced repetition. No first-party
//! calls: the decorators in `sut.rs` own one [`Probe`] each and time the
//! calls they forward; everything lands in plain vectors that are merged
//! and written out when the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Policy calls are timed 1-in-`SAMPLE_EVERY` (every call is counted), the
/// replay loop times requests in batches of this many, and every
/// `SAMPLE_EVERY`-th served request gets a client-to-shard chain.
pub const SAMPLE_EVERY: u64 = 64;

/// No request id.
pub const NO_REQ: u32 = u32::MAX;

macro_rules! kinds {
    ($($variant:ident => $name:literal),+ $(,)?) => {
        /// What a span (or a call tally) measures; the name's prefix is
        /// the layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Kind { $($variant),+ }

        impl Kind {
            pub const ALL: &'static [Kind] = &[$(Kind::$variant),+];
            pub const COUNT: usize = Kind::ALL.len();

            pub fn name(self) -> &'static str {
                match self { $(Kind::$variant => $name),+ }
            }
        }
    };
}

kinds! {
    EngineBatch => "lss.engine.batch64",
    EngineWrite => "lss.engine.write",
    EngineRead => "lss.engine.read",
    EngineTrim => "lss.engine.trim",
    EngineFlushAll => "lss.engine.flush_all",
    PolicyPlaceUser => "core.policy.place_user",
    PolicyPlaceGc => "core.policy.place_gc",
    PolicySlaExpire => "core.policy.sla_expire",
    PolicyLifecycle => "core.policy.lifecycle",
    PolicyShadowAppend => "core.policy.shadow_append",
    SinkWrite => "array.sink.write",
    SinkRead => "array.sink.read",
    SinkSync => "array.sink.sync",
    ShardSync => "serve.shard.sync",
    ShardGcStep => "serve.shard.gc_step",
    ShardProbe => "serve.shard.probe",
    ShardFlushAll => "serve.shard.flush_all",
    ClientSubmit => "serve.client.submit",
    ShardQueueWait => "serve.shard.queue_wait",
    ShardCommitWait => "serve.shard.commit_wait",
    ClientComplete => "serve.client.complete",
    Request => "serve.request",
    StoreWrite => "array.store.write",
    StoreVerifyRead => "array.store.verify_read",
    StoreDegradedRead => "array.store.degraded_read",
    StoreRebuild => "array.store.rebuild_step",
    StoreScrub => "array.store.scrub_step",
}

/// One timed interval. Times are nanoseconds since the run's [`Ctx`]
/// epoch; `parent` is the id of the span that caused this one (0 = root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared by every probe of one traced repetition: the common time base,
/// the span-id allocator, and the id of the span currently open on the
/// engine thread (what nested calls name as their parent).
#[derive(Debug)]
pub struct Ctx {
    epoch: Instant,
    next_id: AtomicU32,
    open: AtomicU32,
}

impl Ctx {
    pub fn new() -> Arc<Ctx> {
        Arc::new(Ctx { epoch: Instant::now(), next_id: AtomicU32::new(1), open: AtomicU32::new(0) })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    // Relaxed: ids only need to be distinct, and `open` is written and
    // read by the one thread that drives the engine.
    pub fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn open(&self) -> u32 {
        self.open.load(Ordering::Relaxed)
    }
}

/// Calls seen at one boundary: every call counted, some timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub timed: u64,
    pub ns: u64,
}

impl Tally {
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }

    /// Mean without the one clock read inside every timed interval.
    pub fn net_mean_ns(&self, timer_ns: f64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.mean_ns() - timer_ns).max(0.0)
        }
    }

    /// Net time of all calls, extrapolated from the timed ones.
    pub fn net_total_ns(&self, timer_ns: f64) -> f64 {
        self.net_mean_ns(timer_ns) * self.calls as f64
    }

    fn add(&mut self, o: &Tally) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
    }
}

/// Per-kind tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tallies(pub [Tally; Kind::COUNT]);

impl Default for Tallies {
    fn default() -> Self {
        Tallies([Tally::default(); Kind::COUNT])
    }
}

impl Tallies {
    pub fn get(&self, k: Kind) -> &Tally {
        &self.0[k as usize]
    }

    /// The calls of several kinds taken together.
    pub fn sum(&self, kinds: &[Kind]) -> Tally {
        let mut t = Tally::default();
        kinds.iter().for_each(|k| t.add(self.get(*k)));
        t
    }

    pub fn merge(&mut self, o: &Tallies) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            a.add(b);
        }
    }
}

/// What a probe collected.
#[derive(Debug, Default)]
pub struct Collected {
    pub spans: Vec<Span>,
    pub tallies: Tallies,
}

impl Collected {
    pub fn merge(&mut self, mut o: Collected) {
        self.spans.append(&mut o.spans);
        self.tallies.merge(&o.tallies);
    }
}

/// One decorator's recorder.
#[derive(Debug)]
pub struct Probe {
    ctx: Arc<Ctx>,
    out: Collected,
}

impl Probe {
    pub fn new(ctx: &Arc<Ctx>) -> Self {
        Probe { ctx: Arc::clone(ctx), out: Collected::default() }
    }

    /// Time `f`, record its span under the currently open span.
    #[inline]
    pub fn timed<R>(&mut self, kind: Kind, req: u32, f: impl FnOnce() -> R) -> R {
        let parent = self.ctx.open();
        let id = self.ctx.alloc_id();
        let start_ns = self.ctx.now_ns();
        let r = f();
        let end_ns = self.ctx.now_ns();
        self.record(Span { kind, id, parent, req, start_ns, end_ns });
        r
    }

    /// Like [`Probe::timed`], and nested probes see this span as their
    /// parent while `f` runs.
    #[inline]
    pub fn scope<R>(&mut self, kind: Kind, req: u32, f: impl FnOnce() -> R) -> R {
        let parent = self.ctx.open();
        let id = self.ctx.alloc_id();
        self.ctx.open.store(id, Ordering::Relaxed);
        let start_ns = self.ctx.now_ns();
        let r = f();
        let end_ns = self.ctx.now_ns();
        self.ctx.open.store(parent, Ordering::Relaxed);
        self.record(Span { kind, id, parent, req, start_ns, end_ns });
        r
    }

    /// Count the call; time it when it is the `SAMPLE_EVERY`-th of its
    /// kind. Timing every call of a 100 ns function, or every call inside
    /// a chosen op, costs more than the function: measured that way a
    /// sampled engine op read 2–3× its untraced cost.
    #[inline]
    pub fn sampled<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let t = &mut self.out.tallies.0[kind as usize];
        if t.calls.is_multiple_of(SAMPLE_EVERY) {
            self.timed(kind, NO_REQ, f)
        } else {
            t.calls += 1;
            f()
        }
    }

    /// Count a call that is not timed.
    #[inline]
    pub fn count(&mut self, kind: Kind) {
        self.out.tallies.0[kind as usize].calls += 1;
    }

    /// Record a span measured by the caller.
    pub fn record(&mut self, s: Span) {
        let t = &mut self.out.tallies.0[s.kind as usize];
        t.calls += 1;
        t.timed += 1;
        t.ns += s.dur_ns();
        self.out.spans.push(s);
    }

    pub fn take(&mut self) -> Collected {
        std::mem::take(&mut self.out)
    }
}

/// Net time of an outer layer whose every call was timed (`outer`) and
/// whose intervals contain `nested_timed` timed calls of inner layers:
/// each of its own calls holds one clock read, each nested timed call two.
/// A layer's self time is this minus the inner layers' net totals.
pub fn net_outer_ns(outer: &Tally, nested_timed: u64, timer_ns: f64) -> f64 {
    (outer.ns as f64 - timer_ns * (outer.timed + 2 * nested_timed) as f64).max(0.0)
}

/// Cost of one clock read, by timing a run of them.
pub fn calibrate_timer_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_parents_nested_calls_and_sampling_is_one_in_64() {
        let ctx = Ctx::new();
        let mut outer = Probe::new(&ctx);
        let mut inner = Probe::new(&ctx);
        outer.scope(Kind::EngineBatch, 7, || {
            for _ in 0..2 * SAMPLE_EVERY {
                inner.sampled(Kind::PolicyPlaceUser, || ());
            }
            inner.timed(Kind::SinkWrite, NO_REQ, || ());
        });
        let batch = outer.take().spans[0];
        assert_eq!((batch.parent, batch.req), (0, 7));
        let got = inner.take();
        let t = got.tallies.get(Kind::PolicyPlaceUser);
        assert_eq!((t.calls, t.timed), (2 * SAMPLE_EVERY, 2));
        assert_eq!(got.spans.len(), 3);
        for s in &got.spans {
            assert_eq!(s.parent, batch.id);
            assert!(s.start_ns >= batch.start_ns && s.end_ns <= batch.end_ns);
        }
        // The scope closed: later calls are roots again.
        inner.timed(Kind::SinkWrite, NO_REQ, || ());
        assert_eq!(inner.take().spans[0].parent, 0);
    }

    #[test]
    fn self_time_is_outer_net_minus_inner_net_totals() {
        // 100 batches, all timed, 1 000 000 ns in all. Inside them: 6 400
        // policy calls of which 100 were timed at 130 ns each (mean), and
        // 400 sink calls, all timed, 50 ns each. Clock read: 30 ns.
        let outer = Tally { calls: 100, timed: 100, ns: 1_000_000 };
        let policy = Tally { calls: 6_400, timed: 100, ns: 13_000 };
        let sink = Tally { calls: 400, timed: 400, ns: 20_000 };
        let timer = 30.0;
        // Outer: minus its own 100 reads and 2 × (100 + 400) nested reads.
        let outer_net = net_outer_ns(&outer, policy.timed + sink.timed, timer);
        assert_eq!(outer_net, 1_000_000.0 - 30.0 * (100.0 + 1_000.0));
        // Policy: (130 - 30) × 6 400 calls; sink: (50 - 30) × 400 calls.
        assert_eq!(policy.net_total_ns(timer), 640_000.0);
        assert_eq!(sink.net_total_ns(timer), 8_000.0);
        let self_ns = outer_net - policy.net_total_ns(timer) - sink.net_total_ns(timer);
        assert_eq!(self_ns, 967_000.0 - 648_000.0);
        // Never below zero on its own.
        assert_eq!(net_outer_ns(&Tally { calls: 1, timed: 1, ns: 10 }, 0, timer), 0.0);
    }

    #[test]
    fn tally_extrapolates_from_timed_calls() {
        let t = Tally { calls: 640, timed: 10, ns: 1_000 };
        assert_eq!(t.mean_ns(), 100.0);
        assert_eq!(Tally::default().net_total_ns(30.0), 0.0);
        assert_eq!((t.net_mean_ns(30.0), t.net_total_ns(30.0)), (70.0, 44_800.0));
        assert_eq!(t.net_mean_ns(500.0), 0.0);
    }

    #[test]
    fn timer_calibration_is_positive() {
        assert!(calibrate_timer_ns() > 0.0);
    }
}
