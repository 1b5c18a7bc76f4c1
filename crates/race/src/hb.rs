//! Happens-before data-race detection (the TSan substitute).
//!
//! Pure vector-clock happens-before detection over VM traces: mutexes
//! and atomics create ordering edges; two accesses to the same address
//! race when at least one writes, they come from different threads, and
//! neither happens-before the other.
//!
//! Two OWL-specific extensions from the paper:
//!
//! * **Annotation support** (§5.1): adhoc synchronizations identified by
//!   the static detector are passed in as [`HbAnnotation`] pairs. The
//!   annotated write acts as a release and the annotated read as an
//!   acquire (TSan markup semantics), and races between the annotated
//!   pair itself are suppressed — this is the benign-schedule reduction.
//! * **Watchlist read hints** (§6.3): for write-write races the
//!   detector records the first subsequent read of the corrupted
//!   address, because Algorithm 1 needs a corrupted load (and its call
//!   stack) to start from.
//!
//! The detector runs on one of two interchangeable shadow-memory
//! backends ([`HbBackend`]): the FastTrack-style epoch fast path (the
//! `epoch` module, the default) or the original full-vector-clock
//! implementation, kept as a differential-testing oracle. Both emit
//! identical report streams.

use crate::epoch::{EpochShadow, EpochStats};
use crate::predict::{PredictMode, PredictStats, Predictor};
use crate::report::{Access, RaceReport};
use crate::vc::VectorClock;
use owl_ir::{InstRef, Module, Type};
use owl_vm::{EventKind, ThreadId, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which detection backend the detector runs. The first two are
/// interchangeable shadow-memory representations of the same
/// happens-before relation — identical report streams (site pairs,
/// watchlist read hints, suppression counts), different cost. The
/// predictive backends run the epoch HB sweep *plus* a post-trace
/// prediction pass (see the `predict` module), so their
/// report sets are supersets of the HB backends' on every trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HbBackend {
    /// FastTrack-style epochs (see [`EpochStats`]): O(1)
    /// same-epoch/ordered fast paths, adaptive read-history promotion,
    /// open-addressed shadow table, interned call stacks. The default.
    #[default]
    Epoch,
    /// Full vector-clock histories in a `BTreeMap` — the original
    /// implementation, kept as the differential-testing oracle.
    Reference,
    /// Epoch HB sweep plus sync-preserving race prediction: also
    /// reports conflicting pairs reachable by a correct reordering of
    /// the observed trace that keeps every same-object
    /// synchronization order (arXiv 2010.16385).
    SyncPreserving,
    /// Epoch HB sweep plus optimistic sync-reversal prediction:
    /// everything `SyncPreserving` finds, plus races that need a
    /// lock-acquire order reversal (arXiv 2401.05642). Every pair is
    /// still witness-validated before reporting.
    SyncReversal,
}

impl HbBackend {
    /// Every backend, in presentation order. The single source of
    /// truth the CLI derives its help text, parser, and error message
    /// from — a new variant added here is automatically everywhere.
    pub const ALL: [HbBackend; 4] = [
        HbBackend::Epoch,
        HbBackend::Reference,
        HbBackend::SyncPreserving,
        HbBackend::SyncReversal,
    ];

    /// Canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            HbBackend::Epoch => "epoch",
            HbBackend::Reference => "reference",
            HbBackend::SyncPreserving => "syncp",
            HbBackend::SyncReversal => "syncrev",
        }
    }

    /// One-line description for `--help`.
    pub fn summary(self) -> &'static str {
        match self {
            HbBackend::Epoch => "FastTrack epochs, the fast path (default)",
            HbBackend::Reference => "full vector clocks, the differential oracle",
            HbBackend::SyncPreserving => "epoch + sync-preserving race prediction",
            HbBackend::SyncReversal => "epoch + optimistic sync-reversal prediction",
        }
    }

    /// Parses a canonical spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<HbBackend> {
        HbBackend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Comma-separated list of every valid spelling, for error text.
    pub fn names() -> String {
        HbBackend::ALL.map(HbBackend::name).join(", ")
    }

    /// Whether this backend runs the post-trace prediction pass.
    pub fn is_predictive(self) -> bool {
        matches!(self, HbBackend::SyncPreserving | HbBackend::SyncReversal)
    }
}

/// One annotated adhoc synchronization: the flag-setting write and the
/// busy-wait read it releases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HbAnnotation {
    /// The write that publishes the flag (e.g. `dying = 1`).
    pub write_site: InstRef,
    /// The spinning read that consumes it.
    pub read_site: InstRef,
}

/// Detector configuration.
#[derive(Clone, Debug)]
pub struct HbConfig {
    /// Hard cap on distinct reports kept. Observations of *new* site
    /// pairs past the cap are counted in
    /// [`HbDetector::reports_dropped`].
    pub max_reports: usize,
    /// Adhoc-synchronization annotations to honour.
    pub annotations: Vec<HbAnnotation>,
    /// Shadow-memory backend.
    pub backend: HbBackend,
}

impl Default for HbConfig {
    fn default() -> Self {
        HbConfig {
            max_reports: 100_000,
            annotations: Vec::new(),
            backend: HbBackend::default(),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Shadow {
    last_write: Option<(VectorClock, Access)>,
    reads: Vec<(VectorClock, Access)>,
}

/// Backend-selected shadow state.
#[derive(Clone, Debug)]
enum ShadowState {
    Reference(BTreeMap<u64, Shadow>),
    // Boxed: the open-addressed table header plus caches dwarf the
    // reference variant's single map pointer, and there is exactly one
    // `ShadowState` per detector, so the indirection is free.
    Epoch(Box<EpochShadow>),
}

/// Online happens-before race detector; implement as a [`TraceSink`]
/// and feed it a VM run.
#[derive(Clone, Debug)]
pub struct HbDetector {
    cfg: HbConfig,
    clocks: Vec<VectorClock>,
    lock_clocks: HashMap<u64, VectorClock>,
    atomic_clocks: HashMap<u64, VectorClock>,
    ann_clocks: HashMap<u64, VectorClock>,
    shadow: ShadowState,
    reported: HashSet<(InstRef, InstRef)>,
    reports: Vec<RaceReport>,
    /// Report indices awaiting a post-race read of the key address.
    pending_hint: HashMap<u64, Vec<usize>>,
    ann_write_sites: HashSet<InstRef>,
    ann_read_sites: HashSet<InstRef>,
    ann_pairs: HashSet<(InstRef, InstRef)>,
    suppressed: usize,
    reports_dropped: usize,
    /// Threads that have not yet been joined. Shadow-state GC prunes
    /// against the pointwise minimum of their clocks: an access every
    /// live thread already knows can never race again.
    live: HashSet<ThreadId>,
    /// Heap allocation sizes (in words), so a `Free` event can sweep
    /// exactly the dying region.
    malloc_sizes: HashMap<u64, u64>,
    shadow_cells_gced: u64,
    /// Trace recorder for the predictive backends; `None` otherwise
    /// and after the prediction pass has run.
    predictor: Option<Box<Predictor>>,
    predict_stats: PredictStats,
    /// Whether the predictor's buffer outgrew its trace budget, kept
    /// once the predictor itself is gone.
    trace_over_budget: bool,
}

impl HbDetector {
    /// Creates a detector.
    pub fn new(cfg: HbConfig) -> Self {
        let ann_write_sites = cfg.annotations.iter().map(|a| a.write_site).collect();
        let ann_read_sites = cfg.annotations.iter().map(|a| a.read_site).collect();
        let ann_pairs = cfg
            .annotations
            .iter()
            .map(|a| normalize(a.write_site, a.read_site))
            .collect();
        // The predictive backends reuse the epoch shadow for their HB
        // sweep (epoch ≡ reference observably, so superset-of-Reference
        // holds for the HB portion by construction) and record the
        // trace on the side for the post-run prediction pass.
        let (shadow, predictor) = match cfg.backend {
            HbBackend::Reference => (ShadowState::Reference(BTreeMap::new()), None),
            HbBackend::Epoch => (ShadowState::Epoch(Box::default()), None),
            HbBackend::SyncPreserving => (
                ShadowState::Epoch(Box::default()),
                Some(Box::new(Predictor::new(PredictMode::SyncPreserving))),
            ),
            HbBackend::SyncReversal => (
                ShadowState::Epoch(Box::default()),
                Some(Box::new(Predictor::new(PredictMode::SyncReversal))),
            ),
        };
        HbDetector {
            cfg,
            clocks: vec![initial_clock(ThreadId::MAIN)],
            lock_clocks: HashMap::new(),
            atomic_clocks: HashMap::new(),
            ann_clocks: HashMap::new(),
            shadow,
            reported: HashSet::new(),
            reports: Vec::new(),
            pending_hint: HashMap::new(),
            ann_write_sites,
            ann_read_sites,
            ann_pairs,
            suppressed: 0,
            reports_dropped: 0,
            live: HashSet::from([ThreadId::MAIN]),
            malloc_sizes: HashMap::new(),
            shadow_cells_gced: 0,
            predictor,
            predict_stats: PredictStats::default(),
            trace_over_budget: false,
        }
    }

    /// Bounds the trace a predictive backend buffers for its post-run
    /// pass to `bytes` (`--max-trace-mem`; `None` = unbounded), charged
    /// per buffered event. Once over budget the predictor stops
    /// recording, frees its buffer and predicts nothing; see
    /// [`HbDetector::trace_over_budget`]. A no-op for the epoch and
    /// reference backends, which buffer no trace.
    pub fn with_trace_budget(mut self, bytes: Option<u64>) -> Self {
        if let Some(p) = &mut self.predictor {
            p.set_budget(bytes);
        }
        self
    }

    /// Whether the predictive trace buffer outgrew the budget set by
    /// [`HbDetector::with_trace_budget`]. Such a detector saw its
    /// prediction cut short, so its report set is incomplete.
    pub fn trace_over_budget(&self) -> bool {
        self.trace_over_budget || self.predictor.as_ref().is_some_and(|p| p.over_budget())
    }

    /// Detector with default configuration and no annotations.
    pub fn unannotated() -> Self {
        HbDetector::new(HbConfig::default())
    }

    /// A detector continuing from this one's state: the explorer feeds
    /// a shared trace prefix into one detector, then forks it once per
    /// seed so each unit's detector is exactly what a fresh detector
    /// would hold after replaying the same prefix. Every field —
    /// vector clocks, shadow state (reference map or epoch table),
    /// dedup/suppression bookkeeping, the predictor's recorded trace —
    /// is deep-copied, so forks never share mutable state.
    pub fn fork(&self) -> HbDetector {
        let mut forked = self.clone();
        forked.shadow = match &self.shadow {
            ShadowState::Reference(clocks) => ShadowState::Reference(clocks.clone()),
            ShadowState::Epoch(shadow) => ShadowState::Epoch(Box::new(shadow.fork())),
        };
        forked
    }

    /// Reports accumulated so far (one per distinct site pair).
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consumes the detector, resolving global names from `module`.
    /// Runs the prediction pass first if it has not run yet.
    pub fn finish(mut self, module: &Module) -> Vec<RaceReport> {
        self.run_prediction();
        for r in &mut self.reports {
            r.global_name = global_name_for_addr(module, r.addr).map(str::to_string);
        }
        self.reports
    }

    /// Runs the predictive pass over the recorded trace (a no-op for
    /// non-predictive backends and on second call). Predicted pairs
    /// flow through the same report path as HB observations —
    /// annotation suppression, site-pair dedup against what the HB
    /// sweep already found, and the report cap — so the final set is
    /// always a superset of the HB sweep's. [`HbDetector::finish`]
    /// calls this automatically; callers that read counters before
    /// finishing (the explorer) invoke it explicitly first.
    pub fn run_prediction(&mut self) {
        let Some(mut p) = self.predictor.take() else {
            return;
        };
        self.trace_over_budget = p.over_budget();
        let predicted = p.predict(&self.reported);
        self.predict_stats = p.stats;
        for r in predicted {
            let before = self.reports.len();
            self.record(r.addr, &r.first, &r.second);
            if self.reports.len() == before {
                continue; // suppressed, duplicate, or over the cap
            }
            let idx = self.reports.len() - 1;
            if let Some(hint) = r.read_hint {
                // The predictor found the first post-race read itself;
                // take the pending §6.3 watch back (no further trace
                // events will arrive to serve it anyway).
                if let Some(v) = self.pending_hint.get_mut(&r.addr) {
                    v.retain(|&i| i != idx);
                }
                self.reports[idx].read_hint = Some(hint);
            }
        }
    }

    /// Prediction-pass counters. All-zero for non-predictive backends
    /// and before [`HbDetector::run_prediction`] has run.
    pub fn predict_stats(&self) -> PredictStats {
        self.predict_stats
    }

    /// Number of race observations suppressed by annotations.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Observations of *new* site pairs that were dropped because the
    /// [`HbConfig::max_reports`] cap was already full. Non-zero means
    /// the report set is truncated.
    pub fn reports_dropped(&self) -> usize {
        self.reports_dropped
    }

    /// Fast-path counters, when running on the epoch backend.
    pub fn epoch_stats(&self) -> Option<EpochStats> {
        match &self.shadow {
            ShadowState::Epoch(s) => Some(s.stats()),
            ShadowState::Reference(_) => None,
        }
    }

    /// Shadow cells reclaimed by GC at `Join`/`Free` events. Identical
    /// across backends: both prune by the same happens-before-all-live
    /// criterion (the private `gc_shadow` helper below).
    pub fn shadow_cells_gced(&self) -> u64 {
        self.shadow_cells_gced
    }

    /// Pointwise minimum over all live threads' clocks — the GC
    /// horizon. An access ordered ≤ this meet happens-before every
    /// live thread, and therefore before any future access: live
    /// threads only advance their clocks, and a forked thread inherits
    /// its parent's knowledge. `None` when no live thread has a clock
    /// yet (nothing can be proved reclaimable).
    fn min_live_clock(&self) -> Option<VectorClock> {
        let mut it = self.live.iter().filter_map(|t| self.clocks.get(t.index()));
        let mut min = it.next()?.clone();
        for c in it {
            min.meet(c);
        }
        Some(min)
    }

    /// Sweeps the whole shadow table against `min` (see
    /// [`HbDetector::min_live_clock`]). Exactness holds on both
    /// backends: for a full clock `vc` published by thread `t` at
    /// epoch `c`, `c ≤ K[t] ⇔ vc ≤ K` for every live thread's clock
    /// `K` (the FastTrack invariant), and a meet of clocks satisfying
    /// that bi-implication satisfies it too — so the epoch test
    /// `c ≤ min[t]` and the reference test `vc.le(min)` reclaim
    /// exactly the same accesses, keeping the backends' observable
    /// state (and this counter) identical.
    fn gc_shadow(&mut self, min: &VectorClock) {
        match &mut self.shadow {
            ShadowState::Epoch(shadow) => {
                self.shadow_cells_gced += shadow.gc(min);
            }
            ShadowState::Reference(map) => {
                let before = map.len();
                map.retain(|_, sh| {
                    if let Some((wc, _)) = &sh.last_write {
                        if wc.le(min) {
                            sh.last_write = None;
                        }
                    }
                    sh.reads.retain(|(rc, _)| !rc.le(min));
                    sh.last_write.is_some() || !sh.reads.is_empty()
                });
                self.shadow_cells_gced += (before - map.len()) as u64;
            }
        }
    }

    /// Targeted sweep of `[start, end)` — a freed heap region.
    fn gc_shadow_range(&mut self, start: u64, end: u64, min: &VectorClock) {
        match &mut self.shadow {
            ShadowState::Epoch(shadow) => {
                self.shadow_cells_gced += shadow.gc_range(start, end, min);
            }
            ShadowState::Reference(map) => {
                let keys: Vec<u64> = map.range(start..end).map(|(k, _)| *k).collect();
                for k in keys {
                    let sh = map.get_mut(&k).expect("key just enumerated");
                    if let Some((wc, _)) = &sh.last_write {
                        if wc.le(min) {
                            sh.last_write = None;
                        }
                    }
                    sh.reads.retain(|(rc, _)| !rc.le(min));
                    if sh.last_write.is_none() && sh.reads.is_empty() {
                        map.remove(&k);
                        self.shadow_cells_gced += 1;
                    }
                }
            }
        }
    }

    /// Post-`Join` GC: the joined thread is dead, so the live-thread
    /// meet just advanced — sweep the shadow table, drop sync clocks
    /// the whole world already knows (re-acquiring them would be a
    /// no-op join), and clear the dead thread's own clock when it has
    /// been fully absorbed. The clock clearing is guarded by
    /// `cc ≤ min`: the VM wakes *every* joiner of a finished thread,
    /// so a second joiner may still need the clock if some live thread
    /// has not absorbed it yet.
    fn gc_after_join(&mut self, child: ThreadId) {
        let Some(min) = self.min_live_clock() else {
            return;
        };
        self.gc_shadow(&min);
        self.lock_clocks.retain(|_, c| !c.le(&min));
        self.atomic_clocks.retain(|_, c| !c.le(&min));
        self.ann_clocks.retain(|_, c| !c.le(&min));
        if let Some(cc) = self.clocks.get_mut(child.index()) {
            if cc.le(&min) {
                *cc = initial_clock(child);
            }
        }
    }

    fn clock_mut(&mut self, t: ThreadId) -> &mut VectorClock {
        while self.clocks.len() <= t.index() {
            let t2 = ThreadId(self.clocks.len() as u32);
            self.clocks.push(initial_clock(t2));
        }
        &mut self.clocks[t.index()]
    }

    fn record(&mut self, addr: u64, prior: &Access, current: &Access) {
        let key = normalize(prior.site, current.site);
        if self.ann_pairs.contains(&key) {
            self.suppressed += 1;
            return;
        }
        if self.reported.contains(&key) {
            return;
        }
        if self.reports.len() >= self.cfg.max_reports {
            self.reports_dropped += 1;
            return;
        }
        self.reported.insert(key);
        let report = RaceReport {
            addr,
            global_name: None,
            first: prior.clone(),
            second: current.clone(),
            read_hint: None,
        };
        let idx = self.reports.len();
        self.reports.push(report);
        if prior.is_write && current.is_write {
            // §6.3: watch the corrupted address; attach the next read.
            self.pending_hint.entry(addr).or_default().push(idx);
        }
    }

    /// Serves pending write-write read hints for `addr` with this
    /// read. Shared preamble of both backends' read paths.
    fn serve_pending_hints(&mut self, addr: u64, access: &Access) {
        if self.pending_hint.is_empty() {
            return;
        }
        if let Some(idxs) = self.pending_hint.remove(&addr) {
            for i in idxs {
                if self.reports[i].read_hint.is_none() {
                    self.reports[i].read_hint = Some(access.clone());
                }
            }
        }
    }

    fn on_read(&mut self, ev: &TraceEvent, addr: u64, value: i64, ty: Type) {
        match self.shadow {
            ShadowState::Reference(_) => self.on_read_reference(ev, addr, value, ty),
            ShadowState::Epoch(_) => self.on_read_epoch(ev, addr, value, ty),
        }
    }

    fn on_write(&mut self, ev: &TraceEvent, addr: u64, value: i64) {
        match self.shadow {
            ShadowState::Reference(_) => self.on_write_reference(ev, addr, value),
            ShadowState::Epoch(_) => self.on_write_epoch(ev, addr, value),
        }
        // Annotated release.
        if self.ann_write_sites.contains(&ev.site) {
            let tc = self.clock_mut(ev.tid).clone();
            self.ann_clocks.entry(addr).or_default().join(&tc);
            self.clock_mut(ev.tid).tick(ev.tid);
        }
    }

    fn on_read_reference(&mut self, ev: &TraceEvent, addr: u64, value: i64, ty: Type) {
        let access = Access {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            is_write: false,
            value,
            ty,
        };
        self.serve_pending_hints(addr, &access);
        // Annotated acquire.
        if self.ann_read_sites.contains(&ev.site) {
            if let Some(rc) = self.ann_clocks.get(&addr).cloned() {
                self.clock_mut(ev.tid).join(&rc);
            }
        }
        let clock = self.clock_mut(ev.tid).clone();
        let ShadowState::Reference(map) = &mut self.shadow else {
            unreachable!("reference read on epoch shadow");
        };
        let shadow = map.entry(addr).or_default();
        let racy_write = match &shadow.last_write {
            Some((wc, wacc)) if wacc.tid != ev.tid && !wc.le(&clock) => Some(wacc.clone()),
            _ => None,
        };
        // Prune reads that happen-before this one, then record it.
        shadow.reads.retain(|(rc, _)| !rc.le(&clock));
        shadow.reads.push((clock, access.clone()));
        if let Some(w) = racy_write {
            self.record(addr, &w, &access);
        }
    }

    fn on_write_reference(&mut self, ev: &TraceEvent, addr: u64, value: i64) {
        let access = Access {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            is_write: true,
            value,
            ty: Type::I64,
        };
        let clock = self.clock_mut(ev.tid).clone();
        let ShadowState::Reference(map) = &mut self.shadow else {
            unreachable!("reference write on epoch shadow");
        };
        let shadow = map.entry(addr).or_default();
        let mut conflicts: Vec<Access> = Vec::new();
        if let Some((wc, wacc)) = &shadow.last_write {
            if wacc.tid != ev.tid && !wc.le(&clock) {
                conflicts.push(wacc.clone());
            }
        }
        for (rc, racc) in &shadow.reads {
            if racc.tid != ev.tid && !rc.le(&clock) {
                conflicts.push(racc.clone());
            }
        }
        shadow.last_write = Some((clock.clone(), access.clone()));
        shadow.reads.retain(|(rc, _)| !rc.le(&clock));
        for c in conflicts {
            self.record(addr, &c, &access);
        }
    }

    /// Epoch-backend read: identical observable behavior to
    /// [`HbDetector::on_read_reference`] (hint service, acquire join,
    /// racy-write check, read-history update, report order) but no
    /// clock clone and no `Access` construction on the conflict-free
    /// fast path.
    fn on_read_epoch(&mut self, ev: &TraceEvent, addr: u64, value: i64, ty: Type) {
        if !self.pending_hint.is_empty() && self.pending_hint.contains_key(&addr) {
            let access = Access {
                tid: ev.tid,
                site: ev.site,
                stack: ev.stack.clone(),
                is_write: false,
                value,
                ty,
            };
            self.serve_pending_hints(addr, &access);
        }
        // Annotated acquire.
        if !self.ann_read_sites.is_empty() && self.ann_read_sites.contains(&ev.site) {
            if let Some(rc) = self.ann_clocks.get(&addr).cloned() {
                self.clock_mut(ev.tid).join(&rc);
            }
        }
        // Statically elided site: the pre-pass proved no access through
        // it can race, so the address has no shadow history worth
        // keeping. The hint service and acquire join above still ran —
        // they are the only observable side channels a read has.
        if ev.no_shadow {
            let ShadowState::Epoch(shadow) = &mut self.shadow else {
                unreachable!("epoch read on reference shadow");
            };
            shadow.note_elided_read();
            return;
        }
        self.clock_mut(ev.tid); // grow the clock table if needed
        let clock = &self.clocks[ev.tid.index()];
        let ShadowState::Epoch(shadow) = &mut self.shadow else {
            unreachable!("epoch read on reference shadow");
        };
        let racy_write = shadow.read(addr, ev.tid, clock, ev.site, &ev.stack, value, ty);
        if let Some(w) = racy_write {
            let ShadowState::Epoch(shadow) = &self.shadow else {
                unreachable!("epoch read on reference shadow");
            };
            let prior = shadow.materialize(&w);
            let access = Access {
                tid: ev.tid,
                site: ev.site,
                stack: ev.stack.clone(),
                is_write: false,
                value,
                ty,
            };
            self.record(addr, &prior, &access);
        }
    }

    /// Epoch-backend write: same conflict set and emission order as
    /// [`HbDetector::on_write_reference`] (prior write first, then
    /// racy reads in insertion order), with the annotated release
    /// handled by the shared [`HbDetector::on_write`] tail.
    fn on_write_epoch(&mut self, ev: &TraceEvent, addr: u64, value: i64) {
        // Statically elided site: skip the shadow update entirely. The
        // annotated-release tail in [`HbDetector::on_write`] still runs
        // (an elided store can legitimately be an annotation site).
        if ev.no_shadow {
            let ShadowState::Epoch(shadow) = &mut self.shadow else {
                unreachable!("epoch write on reference shadow");
            };
            shadow.note_elided_write();
            return;
        }
        self.clock_mut(ev.tid); // grow the clock table if needed
        let clock = &self.clocks[ev.tid.index()];
        let ShadowState::Epoch(shadow) = &mut self.shadow else {
            unreachable!("epoch write on reference shadow");
        };
        shadow.write(addr, ev.tid, clock, ev.site, &ev.stack, value);
        let n = shadow.conflict_count();
        if n == 0 {
            return;
        }
        let access = Access {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            is_write: true,
            value,
            ty: Type::I64,
        };
        for i in 0..n {
            let ShadowState::Epoch(shadow) = &self.shadow else {
                unreachable!("epoch write on reference shadow");
            };
            let prior = shadow.conflict_access(i);
            self.record(addr, &prior, &access);
        }
    }
}

impl TraceSink for HbDetector {
    fn on_event(&mut self, ev: &TraceEvent) {
        if let Some(p) = &mut self.predictor {
            p.record(ev);
        }
        match ev.kind {
            EventKind::Read {
                addr,
                value,
                ty,
                atomic,
            } => {
                if atomic {
                    if let Some(rc) = self.atomic_clocks.get(&addr).cloned() {
                        self.clock_mut(ev.tid).join(&rc);
                    }
                } else {
                    self.on_read(ev, addr, value, ty);
                }
            }
            EventKind::Write {
                addr,
                value,
                atomic,
                ..
            } => {
                if atomic {
                    let tc = self.clock_mut(ev.tid).clone();
                    self.atomic_clocks.entry(addr).or_default().join(&tc);
                    self.clock_mut(ev.tid).tick(ev.tid);
                } else {
                    self.on_write(ev, addr, value);
                }
            }
            EventKind::Lock { addr } => {
                if let Some(lc) = self.lock_clocks.get(&addr).cloned() {
                    self.clock_mut(ev.tid).join(&lc);
                }
            }
            EventKind::Unlock { addr } => {
                let tc = self.clock_mut(ev.tid).clone();
                self.lock_clocks.insert(addr, tc);
                self.clock_mut(ev.tid).tick(ev.tid);
            }
            EventKind::Fork { child } => {
                let parent = self.clock_mut(ev.tid).clone();
                let c = self.clock_mut(child);
                c.join(&parent);
                c.tick(child);
                self.clock_mut(ev.tid).tick(ev.tid);
                self.live.insert(child);
            }
            EventKind::Join { child } => {
                let cc = self.clock_mut(child).clone();
                self.clock_mut(ev.tid).join(&cc);
                self.live.remove(&child);
                self.gc_after_join(child);
            }
            EventKind::Malloc { addr, size } => {
                // No HB information (the VM's memory model already
                // reports UAF/double-free), but remember the extent so
                // the matching `Free` can sweep the dying region.
                self.malloc_sizes.insert(addr, size.max(1));
            }
            EventKind::Free { addr } => {
                if let Some(size) = self.malloc_sizes.remove(&addr) {
                    if let Some(min) = self.min_live_clock() {
                        self.gc_shadow_range(addr, addr + size, &min);
                    }
                }
            }
            EventKind::Fault { .. } => {
                // Injected faults perturb execution but carry no HB
                // information; the run's outcome records them.
            }
        }
    }
}

fn initial_clock(t: ThreadId) -> VectorClock {
    let mut c = VectorClock::new();
    c.tick(t);
    c
}

fn normalize(a: InstRef, b: InstRef) -> (InstRef, InstRef) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Resolves the global variable containing `addr` from the module's
/// (contiguous) global layout, mirroring [`owl_vm::mem`].
pub fn global_name_for_addr(module: &Module, addr: u64) -> Option<&str> {
    let mut base = owl_vm::mem::GLOBAL_BASE;
    for g in &module.globals {
        if addr >= base && addr < base + u64::from(g.size) {
            return Some(&g.name);
        }
        base += u64::from(g.size);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Operand};
    use owl_vm::{ProgramInput, RoundRobin, Vm};

    /// Two threads write/read `flag` with no synchronization.
    fn racy_module() -> (Module, owl_ir::FuncId) {
        let mut mb = ModuleBuilder::new("racy");
        let g = mb.global("flag", 1, Type::I64);
        let writer = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(writer);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(writer, 0);
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    /// Same shape but the store/load are protected by a mutex.
    fn locked_module() -> (Module, owl_ir::FuncId) {
        let mut mb = ModuleBuilder::new("locked");
        let g = mb.global("flag", 1, Type::I64);
        let l = mb.global("lock", 1, Type::I64);
        let writer = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(writer);
            let la = b.global_addr(l);
            b.lock(la);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.unlock(la);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(writer, 0);
            let la = b.global_addr(l);
            b.lock(la);
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.unlock(la);
            b.thread_join(t);
            b.ret(None);
        }
        (mb.finish(), main)
    }

    fn run_detector(m: &Module, entry: owl_ir::FuncId, cfg: HbConfig) -> Vec<RaceReport> {
        let mut det = HbDetector::new(cfg);
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(m, entry, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.finish(m)
    }

    #[test]
    fn detects_unsynchronized_race() {
        let (m, main) = racy_module();
        let reports = run_detector(&m, main, HbConfig::default());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].global_name.as_deref(), Some("flag"));
    }

    #[test]
    fn mutex_orders_accesses() {
        let (m, main) = locked_module();
        let reports = run_detector(&m, main, HbConfig::default());
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn fork_join_order_no_race() {
        // Parent writes before fork and after join: ordered.
        let mut mb = ModuleBuilder::new("fj");
        let g = mb.global("x", 1, Type::I64);
        let child = mb.declare_func("child", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(child);
            let a = b.global_addr(g);
            let v = b.load(a, Type::I64);
            let v2 = b.add(v, 1);
            b.store(a, v2);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let a = b.global_addr(g);
            b.store(a, 10);
            let t = b.thread_create(child, 0);
            b.thread_join(t);
            let v = b.load(a, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let reports = run_detector(&m, main_id, HbConfig::default());
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn atomics_synchronize() {
        let mut mb = ModuleBuilder::new("at");
        let data = mb.global("data", 1, Type::I64);
        let ready = mb.global("ready", 1, Type::I64);
        let consumer = mb.declare_func("consumer", 1);
        let main = mb.declare_func("main", 0);
        {
            // Busy-wait on atomic `ready`, then read `data` plainly.
            let mut b = mb.build_func(consumer);
            let head = b.block();
            let done = b.block();
            b.jmp(head);
            b.switch_to(head);
            let ra = b.global_addr(ready);
            let v = b.atomic_load(ra);
            b.br(v, done, head);
            b.switch_to(done);
            let da = b.global_addr(data);
            b.load(da, Type::I64);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(consumer, 0);
            let da = b.global_addr(data);
            b.store(da, 42);
            let ra = b.global_addr(ready);
            b.atomic_store(ra, 1);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let reports = run_detector(&m, main_id, HbConfig::default());
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn adhoc_sync_races_until_annotated() {
        // The same producer/consumer but with a *plain* flag — an adhoc
        // synchronization. Unannotated: races on flag and data.
        // Annotated: nothing.
        let mut mb = ModuleBuilder::new("adhoc");
        let data = mb.global("data", 1, Type::I64);
        let ready = mb.global("ready", 1, Type::I64);
        let consumer = mb.declare_func("consumer", 1);
        let main = mb.declare_func("main", 0);
        let (read_site, data_read);
        {
            let mut b = mb.build_func(consumer);
            let head = b.block();
            let done = b.block();
            b.jmp(head);
            b.switch_to(head);
            let ra = b.global_addr(ready);
            let v = b.load(ra, Type::I64);
            read_site = InstRef::new(consumer, v);
            b.br(v, done, head);
            b.switch_to(done);
            let da = b.global_addr(data);
            data_read = b.load(da, Type::I64);
            let _ = data_read;
            b.ret(None);
        }
        let write_site;
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(consumer, 0);
            let da = b.global_addr(data);
            b.store(da, 42);
            let ra = b.global_addr(ready);
            let w = b.store(ra, 1);
            write_site = InstRef::new(main, w);
            b.thread_join(t);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();

        let raw = run_detector(&m, main_id, HbConfig::default());
        assert!(
            raw.iter()
                .any(|r| r.global_name.as_deref() == Some("ready")),
            "flag race expected: {raw:?}"
        );
        assert!(
            raw.iter().any(|r| r.global_name.as_deref() == Some("data")),
            "derived data race expected: {raw:?}"
        );

        let annotated = run_detector(
            &m,
            main_id,
            HbConfig {
                annotations: vec![HbAnnotation {
                    write_site,
                    read_site,
                }],
                ..HbConfig::default()
            },
        );
        assert!(annotated.is_empty(), "{annotated:?}");
    }

    #[test]
    fn write_write_race_gets_read_hint() {
        let mut mb = ModuleBuilder::new("ww");
        let g = mb.global("g", 1, Type::I64);
        let writer = mb.declare_func("writer", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(writer);
            let a = b.global_addr(g);
            b.store(a, Operand::Param(0));
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t = b.thread_create(writer, 7);
            let a = b.global_addr(g);
            b.store(a, 8);
            b.thread_join(t);
            let v = b.load(a, Type::I64);
            b.output(0, v);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let reports = run_detector(&m, main_id, HbConfig::default());
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_write_write());
        let hint = reports[0].read_hint.as_ref().expect("read hint");
        assert!(!hint.is_write);
        assert_eq!(reports[0].read_access().unwrap().site, hint.site);
    }

    #[test]
    fn reports_deduplicate_per_site_pair() {
        // Run the racy pair many times in a loop: still one report.
        let (m, main) = racy_module();
        let mut det = HbDetector::unannotated();
        let mut sched = RoundRobin::new(2);
        for _ in 0..5 {
            let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
            let _ = vm.run(&mut sched, &mut det);
        }
        assert_eq!(det.reports().len(), 1);
    }

    /// Drives one module through both backends and asserts identical
    /// observable results.
    fn assert_backends_agree(m: &Module, entry: owl_ir::FuncId, cfg: &HbConfig) {
        let mut out = Vec::new();
        for backend in [HbBackend::Epoch, HbBackend::Reference] {
            let mut det = HbDetector::new(HbConfig {
                backend,
                ..cfg.clone()
            });
            let mut sched = RoundRobin::new(2);
            let vm = Vm::new(m, entry, ProgramInput::empty(), Default::default());
            let _ = vm.run(&mut sched, &mut det);
            out.push((
                det.suppressed(),
                det.reports_dropped(),
                det.shadow_cells_gced(),
                det.finish(m),
            ));
        }
        assert_eq!(out[0], out[1], "epoch and reference must agree");
    }

    #[test]
    fn epoch_backend_matches_reference_on_unit_modules() {
        let (m, main) = racy_module();
        assert_backends_agree(&m, main, &HbConfig::default());
        let (m, main) = locked_module();
        assert_backends_agree(&m, main, &HbConfig::default());
    }

    #[test]
    fn same_epoch_reread_stays_on_fast_path() {
        // One thread reads the same global repeatedly: every re-read
        // replaces the previous read epoch in O(1) — no promotion.
        let mut mb = ModuleBuilder::new("reread");
        let g = mb.global("x", 1, Type::I64);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(main);
            let a = b.global_addr(g);
            b.store(a, 1);
            for _ in 0..4 {
                b.load(a, Type::I64);
            }
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        let mut det = HbDetector::unannotated();
        let mut sched = RoundRobin::new(1);
        let vm = Vm::new(&m, main_id, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        let stats = det.epoch_stats().expect("epoch backend is the default");
        assert_eq!(stats.read_promotions, 0, "{stats:?}");
        assert_eq!(stats.read_fast, stats.reads, "{stats:?}");
        assert!(det.reports().is_empty());
    }

    /// Two forked readers + a post-join write: the concurrent reads
    /// force one promotion, the ordering write demotes the history
    /// back, and nothing races.
    fn promote_demote_module() -> (Module, owl_ir::FuncId) {
        let mut mb = ModuleBuilder::new("promote");
        let g = mb.global("x", 1, Type::I64);
        let reader = mb.declare_func("reader", 1);
        let main = mb.declare_func("main", 0);
        {
            let mut b = mb.build_func(reader);
            let a = b.global_addr(g);
            b.load(a, Type::I64);
            b.ret(None);
        }
        {
            let mut b = mb.build_func(main);
            let t1 = b.thread_create(reader, 0);
            let t2 = b.thread_create(reader, 0);
            b.thread_join(t1);
            b.thread_join(t2);
            let a = b.global_addr(g);
            b.store(a, 1);
            b.ret(None);
        }
        let m = mb.finish();
        let main_id = m.func_by_name("main").unwrap();
        (m, main_id)
    }

    #[test]
    fn concurrent_reads_promote_and_ordering_write_demotes() {
        let (m, main_id) = promote_demote_module();
        let mut det = HbDetector::unannotated();
        let mut sched = RoundRobin::new(3);
        let vm = Vm::new(&m, main_id, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        let stats = det.epoch_stats().expect("epoch backend is the default");
        assert!(stats.read_promotions >= 1, "{stats:?}");
        assert!(stats.read_demotions >= 1, "{stats:?}");
        assert!(
            det.reports().is_empty(),
            "join orders the write: {:?}",
            det.reports()
        );
        assert_backends_agree(&m, main_id, &HbConfig::default());
    }

    #[test]
    fn join_gc_reclaims_absorbed_cells_on_both_backends() {
        // After both readers are joined, every remembered access to
        // `x` happens-before the only live thread: the cell must be
        // reclaimed, and no report may be lost.
        let (m, main_id) = promote_demote_module();
        for backend in [HbBackend::Epoch, HbBackend::Reference] {
            let mut det = HbDetector::new(HbConfig {
                backend,
                ..HbConfig::default()
            });
            let mut sched = RoundRobin::new(3);
            let vm = Vm::new(&m, main_id, ProgramInput::empty(), Default::default());
            let _ = vm.run(&mut sched, &mut det);
            assert!(
                det.shadow_cells_gced() >= 1,
                "{backend:?}: {}",
                det.shadow_cells_gced()
            );
            assert!(det.reports().is_empty(), "{:?}", det.reports());
        }
        assert_backends_agree(&m, main_id, &HbConfig::default());
    }

    #[test]
    fn gc_does_not_lose_already_racy_history() {
        // The racy pair is reported before the join sweeps the cell;
        // GC must never change what was detected.
        let (m, main) = racy_module();
        let reports = run_detector(&m, main, HbConfig::default());
        assert_eq!(reports.len(), 1);
        assert_backends_agree(&m, main, &HbConfig::default());
    }

    #[test]
    fn report_cap_counts_dropped_observations() {
        // Cap of zero: the racy pair is observed but cannot be kept.
        let (m, main) = racy_module();
        let mut det = HbDetector::new(HbConfig {
            max_reports: 0,
            ..HbConfig::default()
        });
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        assert!(det.reports().is_empty());
        assert!(det.reports_dropped() >= 1, "{}", det.reports_dropped());
        assert_backends_agree(
            &m,
            main,
            &HbConfig {
                max_reports: 0,
                ..HbConfig::default()
            },
        );
    }

    #[test]
    fn backend_names_round_trip() {
        for b in HbBackend::ALL {
            assert_eq!(HbBackend::parse(b.name()), Some(b));
            assert!(HbBackend::names().contains(b.name()));
            assert!(!b.summary().is_empty());
        }
        assert_eq!(HbBackend::parse("no-such-backend"), None);
    }

    #[test]
    fn predictive_backends_are_supersets_on_unit_modules() {
        for (m, main) in [racy_module(), locked_module()] {
            let reference = run_detector(&m, main, HbConfig::default());
            for backend in [HbBackend::SyncPreserving, HbBackend::SyncReversal] {
                let predicted = run_detector(
                    &m,
                    main,
                    HbConfig {
                        backend,
                        ..HbConfig::default()
                    },
                );
                for r in &reference {
                    assert!(
                        predicted.iter().any(|p| p.key() == r.key()),
                        "{backend:?} lost an HB report: {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mutex_protected_module_predicts_nothing() {
        // Both accesses are under the same lock: no correct reordering
        // co-enables them, so even the OSR backend stays silent.
        let (m, main) = locked_module();
        let mut det = HbDetector::new(HbConfig {
            backend: HbBackend::SyncReversal,
            ..HbConfig::default()
        });
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.run_prediction();
        let stats = det.predict_stats();
        assert_eq!(stats.witnessed, 0, "{stats:?}");
        assert!(det.reports().is_empty(), "{:?}", det.reports());
    }

    #[test]
    fn run_prediction_is_idempotent_and_finish_implies_it() {
        let (m, main) = racy_module();
        let mut det = HbDetector::new(HbConfig {
            backend: HbBackend::SyncPreserving,
            ..HbConfig::default()
        });
        let mut sched = RoundRobin::new(2);
        let vm = Vm::new(&m, main, ProgramInput::empty(), Default::default());
        let _ = vm.run(&mut sched, &mut det);
        det.run_prediction();
        let stats = det.predict_stats();
        let n = det.reports().len();
        det.run_prediction(); // second call must change nothing
        assert_eq!(det.predict_stats(), stats);
        assert_eq!(det.reports().len(), n);
        let reports = det.finish(&m);
        assert_eq!(reports.len(), n);
    }

    #[test]
    fn global_name_resolution() {
        let mut mb = ModuleBuilder::new("g");
        mb.global("a", 2, Type::I64);
        mb.global("b", 1, Type::I64);
        let m = mb.finish();
        let base = owl_vm::mem::GLOBAL_BASE;
        assert_eq!(global_name_for_addr(&m, base), Some("a"));
        assert_eq!(global_name_for_addr(&m, base + 1), Some("a"));
        assert_eq!(global_name_for_addr(&m, base + 2), Some("b"));
        assert_eq!(global_name_for_addr(&m, base + 3), None);
    }
}
