//! Predictive race detection over one observed trace.
//!
//! The HB backends report only races whose accesses actually ran
//! concurrently in the observed schedule. Prediction asks a stronger
//! question of the *same* trace: is there a **correct reordering** —
//! an event subsequence that every thread could replay with identical
//! control flow — in which two conflicting accesses become co-enabled?
//! Two prediction regimes are implemented, following
//! "Optimal Prediction of Synchronization-Preserving Races"
//! (Mathur/Pavlogiannis/Viswanathan) and "Optimistic Prediction of
//! Synchronization-Reversal Data Races":
//!
//! * **Sync-preserving** ([`PredictMode::SyncPreserving`]): the
//!   reordering must keep the observed relative order of any two
//!   synchronization operations on the same object (lock
//!   acquisitions/releases, atomic accesses) that both appear in it.
//! * **Sync-reversal** ([`PredictMode::SyncReversal`]): additionally
//!   tries reorderings that flip the order of whole lock critical
//!   sections (the optimistic OSR check), keeping atomic order and
//!   lock mutual exclusion intact.
//!
//! Every candidate pair goes through three gates before it may be
//! reported:
//!
//! 1. **Closure**: the set of events that *must* precede both
//!    endpoints — program-order predecessors, each read's observed
//!    writer (so control flow replays identically), fork-before and
//!    join-after edges — computed to a fixpoint. If either endpoint
//!    lands in its own closure the pair is ordered in every correct
//!    reordering and is rejected.
//! 2. **Greedy witness scheduling**: a deterministic scheduler
//!    linearizes the closure under lock mutual exclusion,
//!    read-sees-same-writer, fork/join, and (per mode) sync-order
//!    constraints. A stuck schedule rejects the candidate — greedy
//!    incompleteness can only lose predictions, never invent one.
//! 3. **Independent witness validation**: the produced sequence is
//!    re-checked from scratch by a separate validator
//!    ([`validate_witness`]). Only validated witnesses become reports,
//!    so no unwitnessed pair ever reaches the verification stages.
//!
//! Prediction is strictly additive: it runs after the normal HB sweep
//! and routes its pairs through the same report path (annotation
//! suppression, site-pair dedup, report cap), so a predictive
//! backend's report set is always a superset of the reference
//! backend's set on the same trace.
//!
//! Condition variables are invisible in the event stream (a
//! `CondWait` emits plain `Unlock`/`Lock` events at one site; the
//! wait-for-signal dependency is not recorded), so a trace that shows
//! any site emitting both `Lock` and `Unlock` events — the signature
//! of a cond re-acquire — conservatively disables prediction for that
//! unit rather than risk an unrealizable witness.

use crate::report::Access;
use owl_ir::{InstRef, Type};
use owl_vm::{CallStack, EventKind, ThreadId, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Outcome counters of one unit's prediction pass, the predictive
/// analogue of `EpochStats`: threaded through `ExploreResult` into
/// `PipelineHealth` and every health surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Conflicting cross-thread access pairs submitted to the witness
    /// machinery.
    pub candidates: u64,
    /// Candidates for which a validated witness reordering was found
    /// (each becomes at most one report, subject to suppression and
    /// dedup).
    pub witnessed: u64,
    /// Candidates rejected by closure, scheduling, or validation.
    pub witness_rejected: u64,
    /// Witnessed races that needed a lock-acquire reversal (only ever
    /// non-zero under the sync-reversal mode).
    pub reversal_races: u64,
}

/// Which reorderings the witness scheduler may explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PredictMode {
    /// Keep the observed order of same-object sync operations.
    SyncPreserving,
    /// Also try reorderings that reverse lock-acquire order.
    SyncReversal,
}

/// One predicted race, ready to be routed through the detector's
/// report path.
pub(crate) struct PredictedRace {
    pub addr: u64,
    pub first: Access,
    pub second: Access,
    /// First post-race read of the address in the observed trace, for
    /// write-write pairs (§6.3 needs a corrupted load to start from).
    pub read_hint: Option<Access>,
}

/// Compact recorded event: everything prediction needs, nothing the
/// detector already keeps elsewhere.
#[derive(Clone, Debug)]
enum PKind {
    Read { addr: u64, value: i64, ty: Type },
    Write { addr: u64, value: i64 },
    AtomicRead { addr: u64 },
    AtomicWrite { addr: u64 },
    Lock { addr: u64 },
    Unlock { addr: u64 },
    Fork { child: ThreadId },
    Join { child: ThreadId },
    Free { start: u64, end: u64 },
}

#[derive(Clone, Debug)]
struct PEvent {
    tid: ThreadId,
    site: InstRef,
    /// Shared with the VM's event (`Arc` clone), so recording adds no
    /// per-frame allocation.
    stack: CallStack,
    kind: PKind,
    /// Statically elided site: still a memory event (reads-from must
    /// stay exact) but never a race candidate, mirroring how the
    /// epoch backend skips shadow work at stamped sites.
    elided: bool,
}

/// A synchronization object for the sync-order constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SyncObj {
    LockAddr(u64),
    AtomicAddr(u64),
}

/// Witness-search cost ceilings. All are *soundness-free* knobs:
/// hitting one rejects (or skips) candidates, it never fabricates a
/// witness. They exist so prediction stays linear-ish on traces with
/// heavy properly-synchronized traffic. A trace longer than
/// `MAX_TRACE_EVENTS` is not predicted on at all, so recording stops
/// (and the buffer is freed) as soon as it crosses the cap.
const MAX_TRACE_EVENTS: usize = 500_000;
const MAX_CLOSURE: usize = 10_000;
const MAX_ATTEMPTS_PER_PAIR: u32 = 4;
const MAX_TOTAL_ATTEMPTS: u64 = 4_000;
const MAX_LIST: usize = 512;

/// Bytes charged against the trace budget per buffered event.
const EVENT_BYTES: u64 = std::mem::size_of::<PEvent>() as u64;

/// Why a predictor stopped recording before the trace ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stopped {
    /// The trace crossed `MAX_TRACE_EVENTS`.
    OverCap,
    /// The buffer outgrew the unit's trace budget.
    OverBudget,
}

/// Records a unit's trace and predicts races from it once the run is
/// over. Owned by `HbDetector` when a predictive backend is selected.
#[derive(Clone, Debug)]
pub(crate) struct Predictor {
    mode: PredictMode,
    events: Vec<PEvent>,
    /// Live heap regions (base → words), so `Free` records its extent.
    regions: HashMap<u64, u64>,
    /// Byte budget on `events`, charged at [`EVENT_BYTES`] per event.
    budget: Option<u64>,
    /// Set once recording stopped; the trace is then never predicted.
    stopped: Option<Stopped>,
    pub(crate) stats: PredictStats,
}

impl Predictor {
    pub(crate) fn new(mode: PredictMode) -> Self {
        Predictor {
            mode,
            events: Vec::new(),
            regions: HashMap::new(),
            budget: None,
            stopped: None,
            stats: PredictStats::default(),
        }
    }

    /// Bounds the buffered trace to `bytes` (`None` = unbounded).
    pub(crate) fn set_budget(&mut self, bytes: Option<u64>) {
        self.budget = bytes;
    }

    /// Whether the buffered trace outgrew the budget.
    pub(crate) fn over_budget(&self) -> bool {
        self.stopped == Some(Stopped::OverBudget)
    }

    /// Stops recording for good and frees the buffer.
    fn stop(&mut self, why: Stopped) {
        self.stopped = Some(why);
        self.events = Vec::new();
        self.regions = HashMap::new();
    }

    /// Records one VM event. Runs on the hot path, so it only clones
    /// the `Arc` stack and copies scalars.
    pub(crate) fn record(&mut self, ev: &TraceEvent) {
        if self.stopped.is_some() {
            return;
        }
        let kind = match ev.kind {
            EventKind::Read {
                addr,
                value,
                ty,
                atomic,
            } => {
                if atomic {
                    PKind::AtomicRead { addr }
                } else {
                    PKind::Read { addr, value, ty }
                }
            }
            EventKind::Write {
                addr,
                value,
                atomic,
                ..
            } => {
                if atomic {
                    PKind::AtomicWrite { addr }
                } else {
                    PKind::Write { addr, value }
                }
            }
            EventKind::Lock { addr } => PKind::Lock { addr },
            EventKind::Unlock { addr } => PKind::Unlock { addr },
            EventKind::Fork { child } => PKind::Fork { child },
            EventKind::Join { child } => PKind::Join { child },
            EventKind::Malloc { addr, size } => {
                self.regions.insert(addr, size.max(1));
                return;
            }
            EventKind::Free { addr } => {
                let size = self.regions.remove(&addr).unwrap_or(1);
                PKind::Free {
                    start: addr,
                    end: addr + size,
                }
            }
            // Faults carry no ordering or memory information.
            EventKind::Fault { .. } => return,
        };
        if self.events.len() == MAX_TRACE_EVENTS {
            self.stop(Stopped::OverCap);
            return;
        }
        if self
            .budget
            .is_some_and(|b| (self.events.len() as u64 + 1) * EVENT_BYTES > b)
        {
            self.stop(Stopped::OverBudget);
            return;
        }
        self.events.push(PEvent {
            tid: ev.tid,
            site: ev.site,
            stack: ev.stack.clone(),
            kind,
            elided: ev.no_shadow,
        });
    }

    /// Runs prediction over the recorded trace. `already` holds site
    /// pairs the HB sweep has reported — those need no witness.
    /// Deterministic: candidates walk addresses in order, occurrences
    /// in trace order, and every scheduler decision is index-based.
    pub(crate) fn predict(&mut self, already: &HashSet<(InstRef, InstRef)>) -> Vec<PredictedRace> {
        if self.stopped.is_some() {
            return Vec::new();
        }
        let idx = TraceIndex::build(&self.events);
        if idx.has_cond_reacquire {
            // See the module docs: the wait-for-signal edge is not in
            // the trace, so any witness could be unrealizable.
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut done: HashSet<(InstRef, InstRef)> = already.clone();
        let mut attempts: HashMap<(InstRef, InstRef), u32> = HashMap::new();
        let mut total = 0u64;
        'all: for (&(addr, _gen), accs) in &idx.lists {
            if accs.len() < 2 {
                continue;
            }
            // Cheap pre-filter: single-thread lists cannot conflict.
            let first_tid = self.events[accs[0]].tid;
            if accs.iter().all(|&i| self.events[i].tid == first_tid) {
                continue;
            }
            let accs = &accs[..accs.len().min(MAX_LIST)];
            for (jj, &j) in accs.iter().enumerate() {
                for &i in &accs[..jj] {
                    let (e1, e2) = (&self.events[i], &self.events[j]);
                    if e1.tid == e2.tid {
                        continue;
                    }
                    let w1 = matches!(e1.kind, PKind::Write { .. });
                    let w2 = matches!(e2.kind, PKind::Write { .. });
                    if !w1 && !w2 {
                        continue;
                    }
                    let key = normalize(e1.site, e2.site);
                    if done.contains(&key) {
                        continue;
                    }
                    let tries = attempts.entry(key).or_insert(0);
                    if *tries >= MAX_ATTEMPTS_PER_PAIR {
                        continue;
                    }
                    *tries += 1;
                    if total >= MAX_TOTAL_ATTEMPTS {
                        break 'all;
                    }
                    total += 1;
                    self.stats.candidates += 1;
                    match try_witness(&self.events, &idx, i, j, self.mode) {
                        Some(reversal) => {
                            self.stats.witnessed += 1;
                            if reversal {
                                self.stats.reversal_races += 1;
                            }
                            done.insert(key);
                            let hint = idx.lists[&(addr, _gen)]
                                .iter()
                                .copied()
                                .filter(|&r| r > j)
                                .find(|&r| matches!(self.events[r].kind, PKind::Read { .. }))
                                .map(|r| access_of(&self.events[r]));
                            out.push(PredictedRace {
                                addr,
                                first: access_of(e1),
                                second: access_of(e2),
                                read_hint: if w1 && w2 { hint } else { None },
                            });
                        }
                        None => self.stats.witness_rejected += 1,
                    }
                }
            }
        }
        out
    }
}

fn normalize(a: InstRef, b: InstRef) -> (InstRef, InstRef) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn access_of(e: &PEvent) -> Access {
    let (is_write, value, ty) = match e.kind {
        PKind::Read { value, ty, .. } => (false, value, ty),
        PKind::Write { value, .. } => (true, value, Type::I64),
        // Only plain accesses become candidates / hints.
        _ => unreachable!("access_of on a non-access event"),
    };
    Access {
        tid: e.tid,
        site: e.site,
        stack: e.stack.clone(),
        is_write,
        value,
        ty,
    }
}

fn sync_obj(kind: &PKind) -> Option<SyncObj> {
    match *kind {
        PKind::Lock { addr } | PKind::Unlock { addr } => Some(SyncObj::LockAddr(addr)),
        PKind::AtomicRead { addr } | PKind::AtomicWrite { addr } => Some(SyncObj::AtomicAddr(addr)),
        _ => None,
    }
}

fn event_addr(kind: &PKind) -> Option<u64> {
    match *kind {
        PKind::Read { addr, .. }
        | PKind::Write { addr, .. }
        | PKind::AtomicRead { addr }
        | PKind::AtomicWrite { addr } => Some(addr),
        _ => None,
    }
}

/// Everything the witness machinery needs, computed in one pass.
struct TraceIndex {
    /// Previous event of the same thread, per event.
    po_pred: Vec<Option<usize>>,
    /// Event indices per thread, in program (= trace) order.
    thread_events: BTreeMap<ThreadId, Vec<usize>>,
    /// Observed writer per read event (plain and atomic); `None`
    /// inside the option = the read saw the initial value.
    rf: HashMap<usize, Option<usize>>,
    /// The `Fork` event that created each thread.
    forker: HashMap<ThreadId, usize>,
    /// Sync events per object, in trace order.
    sync_list: HashMap<SyncObj, Vec<usize>>,
    /// Plain, un-elided accesses per `(address, heap generation)` —
    /// the generation splits candidate lists across `Free`/reuse so a
    /// recycled address never pairs accesses to different objects.
    lists: BTreeMap<(u64, u64), Vec<usize>>,
    /// Whether any site emitted both `Lock` and `Unlock` events — the
    /// trace signature of a `CondWait` re-acquire.
    has_cond_reacquire: bool,
}

impl TraceIndex {
    fn build(events: &[PEvent]) -> Self {
        let mut po_pred = vec![None; events.len()];
        let mut thread_events: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
        let mut rf = HashMap::new();
        let mut forker = HashMap::new();
        let mut sync_list: HashMap<SyncObj, Vec<usize>> = HashMap::new();
        let mut lists: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        let mut last_of_thread: HashMap<ThreadId, usize> = HashMap::new();
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let mut gen: BTreeMap<u64, u64> = BTreeMap::new();
        let mut lock_sites: HashSet<InstRef> = HashSet::new();
        let mut unlock_sites: HashSet<InstRef> = HashSet::new();
        for (i, e) in events.iter().enumerate() {
            po_pred[i] = last_of_thread.insert(e.tid, i);
            thread_events.entry(e.tid).or_default().push(i);
            if let Some(o) = sync_obj(&e.kind) {
                sync_list.entry(o).or_default().push(i);
            }
            match e.kind {
                PKind::Read { addr, .. } | PKind::AtomicRead { addr } => {
                    rf.insert(i, last_writer.get(&addr).copied());
                }
                PKind::Write { addr, .. } | PKind::AtomicWrite { addr } => {
                    last_writer.insert(addr, i);
                }
                PKind::Lock { .. } => {
                    lock_sites.insert(e.site);
                }
                PKind::Unlock { .. } => {
                    unlock_sites.insert(e.site);
                }
                PKind::Fork { child } => {
                    forker.insert(child, i);
                }
                PKind::Free { start, end } => {
                    for (_, g) in gen.range_mut(start..end) {
                        *g += 1;
                    }
                }
                PKind::Join { .. } => {}
            }
            if !e.elided {
                if let PKind::Read { addr, .. } | PKind::Write { addr, .. } = e.kind {
                    let g = *gen.entry(addr).or_insert(0);
                    lists.entry((addr, g)).or_default().push(i);
                }
            }
        }
        let has_cond_reacquire = lock_sites.iter().any(|s| unlock_sites.contains(s));
        TraceIndex {
            po_pred,
            thread_events,
            rf,
            forker,
            sync_list,
            lists,
            has_cond_reacquire,
        }
    }

    /// Events of `t` recorded in the whole trace.
    fn thread_len(&self, t: ThreadId) -> usize {
        self.thread_events.get(&t).map_or(0, Vec::len)
    }
}

/// The set of events that must precede both endpoints in any correct
/// reordering: PO-downward closure, each read's observed writer,
/// fork-before, join-pulls-the-whole-child. `None` when the pair is
/// ordered (an endpoint reached its own closure) or the closure blew
/// the cost ceiling.
fn closure(events: &[PEvent], idx: &TraceIndex, e1: usize, e2: usize) -> Option<Vec<usize>> {
    let mut set: HashSet<usize> = HashSet::new();
    let mut work: Vec<usize> = Vec::new();
    let seed = |e: usize, work: &mut Vec<usize>| match idx.po_pred[e] {
        Some(p) => work.push(p),
        None => {
            if let Some(&f) = idx.forker.get(&events[e].tid) {
                work.push(f);
            }
        }
    };
    seed(e1, &mut work);
    seed(e2, &mut work);
    while let Some(x) = work.pop() {
        if x == e1 || x == e2 {
            return None; // one endpoint must precede the other
        }
        if !set.insert(x) {
            continue;
        }
        if set.len() > MAX_CLOSURE {
            return None;
        }
        match idx.po_pred[x] {
            Some(p) => work.push(p),
            None => {
                if let Some(&f) = idx.forker.get(&events[x].tid) {
                    work.push(f);
                }
            }
        }
        if let Some(&Some(w)) = idx.rf.get(&x) {
            work.push(w);
        }
        if let PKind::Join { child } = events[x].kind {
            // A join in the reordering needs the whole child run.
            if let Some(&last) = idx.thread_events.get(&child).and_then(|v| v.last()) {
                work.push(last);
            }
        }
    }
    let mut v: Vec<usize> = set.into_iter().collect();
    v.sort_unstable();
    Some(v)
}

/// Tie-break rules for the greedy scheduler. A small fixed portfolio:
/// lowest-trace-index first (the sync-preserving natural order), then
/// endpoint-thread-first variants, which find the critical-section
/// reversals the plain greedy order walks past. All deterministic.
#[derive(Clone, Copy)]
enum Strategy {
    LowestIndex,
    PreferThread(ThreadId),
}

/// Greedily linearizes `set` under the reordering constraints.
/// Returns the full witness (closure order plus the two endpoints) or
/// `None` if the schedule gets stuck. `preserve_sync_order` keeps the
/// observed order of same-lock operations (the SyncP regime); atomic
/// order is always preserved.
fn schedule(
    events: &[PEvent],
    idx: &TraceIndex,
    set: &[usize],
    e1: usize,
    e2: usize,
    preserve_sync_order: bool,
    strat: Strategy,
) -> Option<Vec<usize>> {
    let mut by_thread: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
    for &x in set {
        by_thread.entry(events[x].tid).or_default().push(x);
    }
    let mut ptr: BTreeMap<ThreadId, usize> = by_thread.keys().map(|&t| (t, 0)).collect();
    // Per-object in-set sync events (trace order) and schedule cursor.
    let in_set: HashSet<usize> = set.iter().copied().collect();
    let mut sync_cursor: HashMap<SyncObj, (Vec<usize>, usize)> = HashMap::new();
    for (&o, all) in &idx.sync_list {
        let constrained = preserve_sync_order || matches!(o, SyncObj::AtomicAddr(_));
        if !constrained {
            continue;
        }
        let members: Vec<usize> = all.iter().copied().filter(|x| in_set.contains(x)).collect();
        if !members.is_empty() {
            sync_cursor.insert(o, (members, 0));
        }
    }
    let mut lock_owner: HashMap<u64, ThreadId> = HashMap::new();
    let mut mem_writer: HashMap<u64, Option<usize>> = HashMap::new();
    let mut forked: HashSet<ThreadId> = HashSet::from([ThreadId::MAIN]);
    for &t in by_thread.keys() {
        if !idx.forker.contains_key(&t) {
            forked.insert(t); // alive before recording began (defensive)
        }
    }
    for t in [events[e1].tid, events[e2].tid] {
        if !idx.forker.contains_key(&t) {
            forked.insert(t);
        }
    }
    let runnable = |x: usize,
                    lock_owner: &HashMap<u64, ThreadId>,
                    mem_writer: &HashMap<u64, Option<usize>>,
                    forked: &HashSet<ThreadId>,
                    ptr: &BTreeMap<ThreadId, usize>,
                    by_thread: &BTreeMap<ThreadId, Vec<usize>>,
                    sync_cursor: &HashMap<SyncObj, (Vec<usize>, usize)>|
     -> bool {
        let e = &events[x];
        if !forked.contains(&e.tid) {
            return false;
        }
        if let Some(o) = sync_obj(&e.kind) {
            if let Some((members, cur)) = sync_cursor.get(&o) {
                if members.get(*cur) != Some(&x) {
                    return false;
                }
            }
        }
        match e.kind {
            PKind::Lock { addr } => !lock_owner.contains_key(&addr),
            PKind::Unlock { addr } => lock_owner.get(&addr) == Some(&e.tid),
            PKind::Read { addr, .. } | PKind::AtomicRead { addr } => {
                mem_writer.get(&addr).copied().unwrap_or(None) == idx.rf.get(&x).copied().flatten()
            }
            PKind::Join { child } => {
                let total = idx.thread_len(child);
                let done = by_thread.get(&child).map_or(0, |v| {
                    // The closure pulled the whole child in, so the
                    // in-set count must equal the trace count too.
                    if v.len() == total {
                        ptr.get(&child).copied().unwrap_or(0)
                    } else {
                        0
                    }
                });
                total == 0 || done == total
            }
            _ => true,
        }
    };
    let mut order = Vec::with_capacity(set.len() + 2);
    for _ in 0..set.len() {
        // Candidates are the per-thread heads (PO forces thread-local
        // order, and downward closure makes in-set events per thread a
        // PO prefix).
        let mut pick: Option<usize> = None;
        let consider = |x: usize, pick: &mut Option<usize>| {
            if runnable(
                x,
                &lock_owner,
                &mem_writer,
                &forked,
                &ptr,
                &by_thread,
                &sync_cursor,
            ) && pick.is_none_or(|p| x < p)
            {
                *pick = Some(x);
            }
        };
        if let Strategy::PreferThread(t) = strat {
            if let (Some(evs), Some(&p)) = (by_thread.get(&t), ptr.get(&t)) {
                if let Some(&head) = evs.get(p) {
                    consider(head, &mut pick);
                }
            }
        }
        if pick.is_none() {
            for (&t, evs) in &by_thread {
                if let Some(&head) = evs.get(ptr[&t]) {
                    consider(head, &mut pick);
                }
            }
        }
        let x = pick?;
        let e = &events[x];
        *ptr.get_mut(&e.tid).expect("thread has a cursor") += 1;
        if let Some(o) = sync_obj(&e.kind) {
            if let Some((_, cur)) = sync_cursor.get_mut(&o) {
                *cur += 1;
            }
        }
        match e.kind {
            PKind::Lock { addr } => {
                lock_owner.insert(addr, e.tid);
            }
            PKind::Unlock { addr } => {
                lock_owner.remove(&addr);
            }
            PKind::Write { addr, .. } | PKind::AtomicWrite { addr } => {
                mem_writer.insert(addr, Some(x));
            }
            PKind::Fork { child } => {
                forked.insert(child);
            }
            _ => {}
        }
        order.push(x);
    }
    order.push(e1);
    order.push(e2);
    Some(order)
}

/// Independent witness check: replays `order` from scratch and
/// verifies it is a correct reordering ending in the co-enabled
/// conflicting pair. Shares no state with the scheduler — this is the
/// gate the soundness contract names.
fn validate_witness(
    events: &[PEvent],
    idx: &TraceIndex,
    order: &[usize],
    e1: usize,
    e2: usize,
) -> bool {
    let n = order.len();
    if n < 2 || order[n - 2] != e1 || order[n - 1] != e2 {
        return false;
    }
    let (a, b) = (&events[e1], &events[e2]);
    let conflict = a.tid != b.tid
        && event_addr(&a.kind) == event_addr(&b.kind)
        && event_addr(&a.kind).is_some()
        && (matches!(a.kind, PKind::Write { .. }) || matches!(b.kind, PKind::Write { .. }))
        && matches!(a.kind, PKind::Read { .. } | PKind::Write { .. })
        && matches!(b.kind, PKind::Read { .. } | PKind::Write { .. });
    if !conflict {
        return false;
    }
    let mut seen: HashMap<ThreadId, usize> = HashMap::new();
    let mut lock_owner: HashMap<u64, ThreadId> = HashMap::new();
    let mut writer: HashMap<u64, Option<usize>> = HashMap::new();
    let mut forked: HashSet<ThreadId> = HashSet::from([ThreadId::MAIN]);
    for &x in order {
        if !idx.forker.contains_key(&events[x].tid) {
            forked.insert(events[x].tid);
        }
    }
    for (k, &x) in order.iter().enumerate() {
        let e = &events[x];
        let endpoint = k >= n - 2;
        // Program order: the witness's events of each thread must be
        // exactly a prefix of that thread's trace events.
        let cnt = seen.entry(e.tid).or_insert(0);
        if idx.thread_events.get(&e.tid).and_then(|v| v.get(*cnt)) != Some(&x) {
            return false;
        }
        *cnt += 1;
        if !forked.contains(&e.tid) {
            return false;
        }
        match e.kind {
            PKind::Lock { addr } => {
                if lock_owner.contains_key(&addr) {
                    return false;
                }
                lock_owner.insert(addr, e.tid);
            }
            PKind::Unlock { addr } => {
                if lock_owner.remove(&addr) != Some(e.tid) {
                    return false;
                }
            }
            PKind::Read { addr, .. } | PKind::AtomicRead { addr } => {
                // Endpoints are exempt: the race is about the access
                // happening, not about which value it sees.
                if !endpoint
                    && writer.get(&addr).copied().unwrap_or(None)
                        != idx.rf.get(&x).copied().flatten()
                {
                    return false;
                }
            }
            PKind::Write { addr, .. } | PKind::AtomicWrite { addr } => {
                writer.insert(addr, Some(x));
            }
            PKind::Fork { child } => {
                forked.insert(child);
            }
            PKind::Join { child } => {
                if seen.get(&child).copied().unwrap_or(0) != idx.thread_len(child) {
                    return false;
                }
            }
            PKind::Free { .. } => {}
        }
    }
    true
}

/// Runs the full gate sequence for one candidate. Returns
/// `Some(reversal)` when a validated witness exists.
fn try_witness(
    events: &[PEvent],
    idx: &TraceIndex,
    e1: usize,
    e2: usize,
    mode: PredictMode,
) -> Option<bool> {
    let set = closure(events, idx, e1, e2)?;
    let strategies = [
        Strategy::LowestIndex,
        Strategy::PreferThread(events[e2].tid),
        Strategy::PreferThread(events[e1].tid),
    ];
    for strat in strategies {
        if let Some(order) = schedule(events, idx, &set, e1, e2, true, strat) {
            if validate_witness(events, idx, &order, e1, e2) {
                return Some(false);
            }
        }
    }
    if mode == PredictMode::SyncReversal {
        for strat in strategies {
            if let Some(order) = schedule(events, idx, &set, e1, e2, false, strat) {
                if validate_witness(events, idx, &order, e1, e2) {
                    return Some(true);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{FuncId, InstId};
    use std::sync::Arc;

    fn ev(tid: u32, func: u32, inst: u32, kind: PKind) -> PEvent {
        PEvent {
            tid: ThreadId(tid),
            site: InstRef::new(FuncId(func), InstId(inst)),
            stack: Arc::from(vec![].into_boxed_slice()),
            kind,
            elided: false,
        }
    }

    fn predictor_with(mode: PredictMode, events: Vec<PEvent>) -> Predictor {
        let mut p = Predictor::new(mode);
        p.events = events;
        p
    }

    const X: u64 = 0x1000;
    const L: u64 = 0x2000;

    /// main: fork; write x; lock; unlock; T1: lock; unlock; read x.
    /// HB-ordered in this trace (lock edge), but sync-preservingly
    /// racy: a reordering omitting main's critical section co-enables
    /// the write and the read.
    fn syncp_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 2, PKind::Lock { addr: L }),
            ev(0, 0, 3, PKind::Unlock { addr: L }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(1, 1, 1, PKind::Unlock { addr: L }),
            ev(
                1,
                1,
                2,
                PKind::Read {
                    addr: X,
                    value: 1,
                    ty: Type::I64,
                },
            ),
        ]
    }

    /// main: fork; lock; write x; unlock; T1: lock; unlock; write x.
    /// Both accesses inside/behind critical sections on the same lock:
    /// only a critical-section reversal exposes the race.
    fn reversal_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Lock { addr: L }),
            ev(0, 0, 2, PKind::Write { addr: X, value: 1 }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(1, 1, 1, PKind::Unlock { addr: L }),
            ev(1, 1, 2, PKind::Write { addr: X, value: 2 }),
        ]
    }

    /// Both accesses *inside* same-lock critical sections: no correct
    /// reordering co-enables them, whatever the regime.
    fn locked_trace() -> Vec<PEvent> {
        vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Lock { addr: L }),
            ev(0, 0, 2, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 3, PKind::Unlock { addr: L }),
            ev(1, 1, 0, PKind::Lock { addr: L }),
            ev(
                1,
                1,
                1,
                PKind::Read {
                    addr: X,
                    value: 1,
                    ty: Type::I64,
                },
            ),
            ev(1, 1, 2, PKind::Unlock { addr: L }),
        ]
    }

    #[test]
    fn syncp_predicts_hb_ordered_race() {
        let mut p = predictor_with(PredictMode::SyncPreserving, syncp_trace());
        let races = p.predict(&HashSet::new());
        assert_eq!(races.len(), 1, "{:?}", p.stats);
        assert_eq!(races[0].addr, X);
        assert_eq!(p.stats.witnessed, 1);
        assert_eq!(p.stats.reversal_races, 0);
    }

    #[test]
    fn reversal_needs_osr_mode() {
        let mut syncp = predictor_with(PredictMode::SyncPreserving, reversal_trace());
        assert!(
            syncp.predict(&HashSet::new()).is_empty(),
            "SyncP must not reverse lock order: {:?}",
            syncp.stats
        );
        assert!(syncp.stats.witness_rejected >= 1);

        let mut osr = predictor_with(PredictMode::SyncReversal, reversal_trace());
        let races = osr.predict(&HashSet::new());
        assert_eq!(races.len(), 1, "{:?}", osr.stats);
        assert_eq!(osr.stats.reversal_races, 1);
    }

    #[test]
    fn same_lock_protection_is_never_predicted() {
        for mode in [PredictMode::SyncPreserving, PredictMode::SyncReversal] {
            let mut p = predictor_with(mode, locked_trace());
            assert!(
                p.predict(&HashSet::new()).is_empty(),
                "{mode:?} predicted through a common lock: {:?}",
                p.stats
            );
        }
    }

    #[test]
    fn rf_constraint_blocks_control_flow_divergence() {
        // T1 writes x; T2 reads x (from T1's write) and then writes y;
        // candidate pair is (write y, read y by main)... simplified:
        // the read of x inside the closure must still see T1's write,
        // which forces the write before it in every witness.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Fork { child: ThreadId(2) }),
            ev(1, 1, 0, PKind::Write { addr: X, value: 7 }),
            ev(
                2,
                2,
                0,
                PKind::Read {
                    addr: X,
                    value: 7,
                    ty: Type::I64,
                },
            ),
            ev(
                2,
                2,
                1,
                PKind::Write {
                    addr: X + 1,
                    value: 1,
                },
            ),
            ev(
                0,
                0,
                2,
                PKind::Write {
                    addr: X + 1,
                    value: 2,
                },
            ),
        ];
        let idx = TraceIndex::build(&trace);
        // Candidate: (T2's write at 4, main's write at 5) on X+1. The
        // closure must contain T2's read (PO) and transitively T1's
        // write (RF).
        let set = closure(&trace, &idx, 4, 5).expect("co-enablable");
        assert!(set.contains(&3), "PO pred of endpoint in closure");
        assert!(set.contains(&2), "observed writer pulled in via RF");
        let order =
            schedule(&trace, &idx, &set, 4, 5, true, Strategy::LowestIndex).expect("schedulable");
        assert!(validate_witness(&trace, &idx, &order, 4, 5));
        // The validator rejects a witness whose read sees the wrong
        // writer: drop T1's write from the order.
        let broken: Vec<usize> = order.iter().copied().filter(|&x| x != 2).collect();
        assert!(!validate_witness(&trace, &idx, &broken, 4, 5));
    }

    #[test]
    fn free_generation_split_prevents_cross_object_pairs() {
        // T1 writes addr inside region; main frees the region; T2
        // writes the recycled addr. Different heap objects — not a
        // candidate pair.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(1, 1, 0, PKind::Write { addr: X, value: 1 }),
            ev(0, 0, 1, PKind::Join { child: ThreadId(1) }),
            ev(
                0,
                0,
                2,
                PKind::Free {
                    start: X,
                    end: X + 4,
                },
            ),
            ev(0, 0, 3, PKind::Fork { child: ThreadId(2) }),
            ev(2, 2, 0, PKind::Write { addr: X, value: 2 }),
        ];
        let idx = TraceIndex::build(&trace);
        assert_eq!(idx.lists.len(), 2, "free splits the generation");
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&HashSet::new()).is_empty());
        assert_eq!(p.stats.candidates, 0, "no cross-generation candidates");
    }

    #[test]
    fn cond_reacquire_signature_disables_prediction() {
        // A CondWait re-acquire emits Lock at the same site as its
        // phase-1 Unlock; such traces must predict nothing.
        let mut trace = syncp_trace();
        trace.push(ev(1, 1, 3, PKind::Unlock { addr: L }));
        trace.push(ev(1, 1, 3, PKind::Lock { addr: L }));
        let mut p = predictor_with(PredictMode::SyncReversal, trace);
        assert!(p.predict(&HashSet::new()).is_empty());
        assert_eq!(p.stats.candidates, 0);
    }

    #[test]
    fn join_pulls_whole_child_into_witness() {
        // main forks T1, joins it, then writes x; T2 writes x. The
        // join in main's prefix forces all of T1 into the witness.
        let trace = vec![
            ev(0, 0, 0, PKind::Fork { child: ThreadId(1) }),
            ev(0, 0, 1, PKind::Fork { child: ThreadId(2) }),
            ev(
                1,
                1,
                0,
                PKind::Write {
                    addr: X + 9,
                    value: 3,
                },
            ),
            ev(0, 0, 2, PKind::Join { child: ThreadId(1) }),
            ev(0, 0, 3, PKind::Write { addr: X, value: 1 }),
            ev(2, 2, 0, PKind::Write { addr: X, value: 2 }),
        ];
        let idx = TraceIndex::build(&trace);
        let set = closure(&trace, &idx, 4, 5).expect("co-enablable");
        assert!(set.contains(&2), "child's events pulled in by the join");
        assert!(set.contains(&3));
        let order =
            schedule(&trace, &idx, &set, 4, 5, true, Strategy::LowestIndex).expect("schedulable");
        assert!(validate_witness(&trace, &idx, &order, 4, 5));
    }

    #[test]
    fn elided_accesses_are_memory_events_but_not_candidates() {
        let mut trace = syncp_trace();
        for e in &mut trace {
            if matches!(e.kind, PKind::Read { .. } | PKind::Write { .. }) {
                e.elided = true;
            }
        }
        let mut p = predictor_with(PredictMode::SyncPreserving, trace);
        assert!(p.predict(&HashSet::new()).is_empty());
        assert_eq!(p.stats.candidates, 0);
    }

    /// The VM event a recorded `PEvent` came from.
    fn vm_event(e: &PEvent) -> TraceEvent {
        let kind = match e.kind {
            PKind::Read { addr, value, ty } => EventKind::Read {
                addr,
                value,
                ty,
                atomic: false,
            },
            PKind::Write { addr, value } => EventKind::Write {
                addr,
                value,
                old: 0,
                atomic: false,
            },
            PKind::Lock { addr } => EventKind::Lock { addr },
            PKind::Unlock { addr } => EventKind::Unlock { addr },
            PKind::Fork { child } => EventKind::Fork { child },
            ref other => unreachable!("no test trace uses {other:?}"),
        };
        TraceEvent {
            step: 0,
            tid: e.tid,
            site: e.site,
            stack: e.stack.clone(),
            kind,
            no_shadow: e.elided,
        }
    }

    fn recorded(mode: PredictMode, budget: Option<u64>, trace: &[PEvent]) -> Predictor {
        let mut p = Predictor::new(mode);
        p.set_budget(budget);
        for e in trace {
            p.record(&vm_event(e));
        }
        p
    }

    #[test]
    fn trace_over_the_cap_is_freed_and_predicts_nothing() {
        // The racy pattern first, then filler until the trace crosses
        // the cap: recording stops at the crossing event and the
        // buffer is freed, instead of growing with a trace that will
        // never be predicted on.
        let trace = syncp_trace();
        let mut p = recorded(PredictMode::SyncPreserving, None, &trace);
        let filler = vm_event(&ev(0, 0, 9, PKind::Lock { addr: L }));
        while p.events.len() < MAX_TRACE_EVENTS {
            p.record(&filler);
        }
        assert_eq!(
            p.events.len(),
            MAX_TRACE_EVENTS,
            "a trace at the cap is kept"
        );
        p.record(&filler);
        assert!(
            p.events.is_empty() && p.events.capacity() == 0,
            "buffer not freed"
        );
        p.record(&filler);
        assert!(p.events.is_empty(), "recording resumed past the cap");
        assert!(!p.over_budget(), "the cap is not the trace budget");
        assert!(p.predict(&HashSet::new()).is_empty());
        assert_eq!(p.stats, PredictStats::default());
    }

    #[test]
    fn trace_budget_is_charged_per_buffered_event() {
        let trace = syncp_trace();
        let fits = trace.len() as u64 * EVENT_BYTES;
        let mut p = recorded(PredictMode::SyncPreserving, Some(fits), &trace);
        assert!(!p.over_budget());
        assert_eq!(
            p.predict(&HashSet::new()).len(),
            1,
            "a trace within budget is predicted"
        );

        let mut p = recorded(PredictMode::SyncPreserving, Some(fits - 1), &trace);
        assert!(p.over_budget());
        assert!(
            p.events.is_empty() && p.events.capacity() == 0,
            "buffer not freed"
        );
        assert!(p.predict(&HashSet::new()).is_empty());
        assert_eq!(p.stats, PredictStats::default());
    }
}
