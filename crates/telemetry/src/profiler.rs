//! Continuous sampling profiler: per-thread span-stack slots + a wall-clock
//! sampler (`QOC_PROFILE_HZ`).
//!
//! Full JSONL tracing costs one record per span close — fine for a CI run,
//! ruinous for a week-long serve host. The profiler inverts the cost model:
//! every [`SpanGuard`](crate::SpanGuard) *publishes* its thread's current
//! span path into a lock-free slot (a few relaxed atomic stores), and a
//! dedicated sampler thread *reads* those slots at a fixed rate, folding
//! what it sees into flamegraph stacks. Work done by the instrumented
//! threads is O(span), independent of the sampling rate; profile resolution
//! is bought entirely on the sampler thread.
//!
//! # Slot protocol (seqlock)
//!
//! Each thread owns one [`SpanSlot`]: a sequence counter, a depth, and a
//! fixed array of interned span-name ids. Writers (span open/close on the
//! owning thread) bump `seq` to odd, mutate, bump back to even. The sampler
//! reads `seq`, the frames, then `seq` again; a read that saw an odd or
//! changed sequence is *torn* and discarded (counted in
//! [`ProfileReport::torn`]). Span names are interned to `u32` ids through a
//! global append-only table so the frames array holds plain atomics — no
//! pointer can be read half-written.
//!
//! Slots register weakly in a global list; when a thread dies its slot is
//! reaped on the next sweep. The disabled path adds nothing to
//! [`crate::enabled`]'s single relaxed load, and the per-span cost when
//! tracing is on but profiling is off is one further relaxed load.
//!
//! # Artifacts
//!
//! The engine flushes [`report`] at run end into `<stem>.profile.folded`
//! (collapsed-stack text, one `a;b;c count` line per distinct stack — feed
//! it straight to any flamegraph renderer) and a `profile` section in the
//! run manifest (`hz`, sample/torn counts, per-span self/total samples).
//! `qoc-analyze --profile` reconciles the folded jacobian share against the
//! trace-derived phase table.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Deepest span nesting the slot records; deeper frames are dropped from
/// samples (the depth counter still tracks them so pops stay balanced).
pub const MAX_DEPTH: usize = 32;

/// Fast-path flag for [`SpanGuard`](crate::SpanGuard): one relaxed load.
static PROFILER_ON: AtomicBool = AtomicBool::new(false);

/// Whether the sampler is running and spans should publish their stacks.
#[inline]
pub fn active() -> bool {
    PROFILER_ON.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Span-name interning
// ---------------------------------------------------------------------------

/// Global append-only id → name table. Names are `&'static str` (the
/// [`span!`](crate::span) macro only accepts literals), so interning is a
/// pointer-compare cache hit on every span after a thread's first use of a
/// given name.
fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// Per-thread `(name ptr, id)` cache — ptr equality is sound for the
    /// `'static` literals the macro produces, and a rare false miss (same
    /// string, different address) only costs a table walk.
    static INTERN_CACHE: std::cell::RefCell<Vec<(*const u8, u32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Interns `name`, returning its stable `u32` id.
fn intern(name: &'static str) -> u32 {
    let key = name.as_ptr();
    INTERN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&(_, id)) = cache.iter().find(|(p, _)| *p == key) {
            return id;
        }
        let mut table = intern_table().lock().unwrap_or_else(|e| e.into_inner());
        let id = match table.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                table.push(name);
                (table.len() - 1) as u32
            }
        };
        cache.push((key, id));
        id
    })
}

/// Resolves interned ids back to names (sampler/report side).
fn resolve(ids: &[u32]) -> Vec<&'static str> {
    let table = intern_table().lock().unwrap_or_else(|e| e.into_inner());
    ids.iter()
        .map(|&id| table.get(id as usize).copied().unwrap_or("?"))
        .collect()
}

// ---------------------------------------------------------------------------
// Per-thread slots
// ---------------------------------------------------------------------------

/// One thread's published span stack (see module docs for the protocol).
#[derive(Debug)]
struct SpanSlot {
    /// Seqlock counter: odd while the owner is mutating.
    seq: AtomicU64,
    /// Current span depth (may exceed [`MAX_DEPTH`]).
    depth: AtomicUsize,
    /// Interned name ids of the innermost `min(depth, MAX_DEPTH)` frames.
    frames: [AtomicU32; MAX_DEPTH],
}

impl SpanSlot {
    fn new() -> Self {
        SpanSlot {
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Owner-side push: publish `id` as the new innermost frame.
    fn push(&self, id: u32) {
        self.seq.fetch_add(1, Ordering::Release); // odd: write in progress
        let depth = self.depth.load(Ordering::Relaxed);
        if depth < MAX_DEPTH {
            self.frames[depth].store(id, Ordering::Relaxed);
        }
        self.depth.store(depth + 1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release); // even: stable
    }

    /// Owner-side pop.
    fn pop(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Sampler-side read: `Some(stack ids)` on a clean read, `None` when
    /// the read raced a writer (torn — discard, never guess).
    fn sample(&self) -> Option<Vec<u32>> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 % 2 == 1 {
            return None;
        }
        let depth = self.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        let mut ids = Vec::with_capacity(depth);
        for frame in &self.frames[..depth] {
            ids.push(frame.load(Ordering::Acquire));
        }
        let s2 = self.seq.load(Ordering::Acquire);
        (s1 == s2).then_some(ids)
    }
}

/// Global weak registry of live slots. Dead threads drop their `Arc`; the
/// sampler reaps entries whose upgrade fails.
fn slot_registry() -> &'static Mutex<Vec<Weak<SpanSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Weak<SpanSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_SLOT: Arc<SpanSlot> = {
        let slot = Arc::new(SpanSlot::new());
        let mut slots = slot_registry().lock().unwrap_or_else(|e| e.into_inner());
        slots.retain(|w| w.strong_count() > 0);
        slots.push(Arc::downgrade(&slot));
        slot
    };
}

/// Publishes `name` as the calling thread's innermost open span. Called by
/// [`SpanGuard::new`](crate::SpanGuard::new) only when [`active`].
pub(crate) fn push_span(name: &'static str) {
    let id = intern(name);
    MY_SLOT.with(|slot| slot.push(id));
}

/// Unpublishes the innermost span (guard drop). Must pair with
/// [`push_span`]; the guard records whether it pushed so a profiler that
/// flips mid-span cannot unbalance the stack.
pub(crate) fn pop_span() {
    MY_SLOT.with(|slot| slot.pop());
}

// ---------------------------------------------------------------------------
// Sample accumulation
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Accum {
    /// Folded stacks: joined `a;b;c` → sample count.
    stacks: std::collections::BTreeMap<String, u64>,
    /// Clean samples taken (sum over slots, idle slots included).
    samples: u64,
    /// Reads discarded because they raced a writer.
    torn: u64,
}

#[derive(Debug)]
struct SamplerState {
    hz: u32,
    accum: Mutex<Accum>,
    stop: AtomicBool,
}

static SAMPLER: OnceLock<Arc<SamplerState>> = OnceLock::new();

/// Takes one sample of every live slot into `accum`. Factored out of the
/// sampler loop so tests can drive it deterministically.
fn sample_once(accum: &mut Accum) {
    let mut slots = slot_registry().lock().unwrap_or_else(|e| e.into_inner());
    slots.retain(|w| w.strong_count() > 0);
    let live: Vec<Arc<SpanSlot>> = slots.iter().filter_map(Weak::upgrade).collect();
    drop(slots);
    for slot in live {
        match slot.sample() {
            Some(ids) => {
                accum.samples += 1;
                if !ids.is_empty() {
                    let key = resolve(&ids).join(";");
                    *accum.stacks.entry(key).or_insert(0) += 1;
                }
            }
            None => accum.torn += 1,
        }
    }
}

/// Starts the sampler at `hz` (first caller wins; later rates are ignored).
pub fn start_at(hz: u32) {
    let state = SAMPLER.get_or_init(|| {
        let state = Arc::new(SamplerState {
            hz: hz.max(1),
            accum: Mutex::new(Accum::default()),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&state);
        std::thread::Builder::new()
            .name("qoc-profiler".into())
            .spawn(move || {
                let period = Duration::from_nanos(1_000_000_000 / u64::from(worker.hz));
                while !worker.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let mut accum = worker.accum.lock().unwrap_or_else(|e| e.into_inner());
                    sample_once(&mut accum);
                }
            })
            .expect("spawn profiler sampler");
        state
    });
    let _ = state;
    PROFILER_ON.store(true, Ordering::Relaxed);
}

/// Per-span sample totals derived from the folded stacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSamples {
    /// Span name.
    pub name: String,
    /// Samples with this span as the innermost frame (self time).
    pub self_samples: u64,
    /// Samples with this span anywhere on the stack (total time; counted
    /// once per sample even for recursive nesting).
    pub total_samples: u64,
}

/// A point-in-time copy of everything the sampler has accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Configured sampling rate.
    pub hz: u32,
    /// Clean samples taken (idle — empty-stack — samples included).
    pub samples: u64,
    /// Discarded torn reads.
    pub torn: u64,
    /// Folded stacks, sorted by stack string.
    pub folded: Vec<(String, u64)>,
    /// Per-span self/total sample counts, sorted by name.
    pub spans: Vec<SpanSamples>,
}

impl ProfileReport {
    fn from_accum(hz: u32, accum: &Accum) -> Self {
        let mut spans: std::collections::BTreeMap<&str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (stack, &count) in &accum.stacks {
            let frames: Vec<&str> = stack.split(';').collect();
            if let Some(&leaf) = frames.last() {
                spans.entry(leaf).or_insert((0, 0)).0 += count;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
            for frame in frames {
                if !seen.contains(&frame) {
                    seen.push(frame);
                    spans.entry(frame).or_insert((0, 0)).1 += count;
                }
            }
        }
        ProfileReport {
            hz,
            samples: accum.samples,
            torn: accum.torn,
            folded: accum.stacks.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            spans: spans
                .into_iter()
                .map(|(name, (s, t))| SpanSamples {
                    name: name.to_string(),
                    self_samples: s,
                    total_samples: t,
                })
                .collect(),
        }
    }

    /// Collapsed-stack text (`stack count` lines, flamegraph-ready).
    pub fn to_folded_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (stack, count) in &self.folded {
            let _ = writeln!(out, "{stack} {count}");
        }
        out
    }

    /// The manifest `profile` section.
    pub fn to_manifest_json(&self) -> serde::Value {
        use serde::Value;
        let spans = self
            .spans
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    Value::Object(vec![
                        ("self_samples".into(), Value::UInt(s.self_samples)),
                        ("total_samples".into(), Value::UInt(s.total_samples)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("hz".into(), Value::UInt(u64::from(self.hz))),
            ("samples".into(), Value::UInt(self.samples)),
            ("torn".into(), Value::UInt(self.torn)),
            ("spans".into(), Value::Object(spans)),
        ])
    }
}

/// The accumulated profile so far, `None` when no sampler ever started.
/// Does not reset the accumulator: a serve host can flush per job while the
/// profile keeps integrating.
pub fn report() -> Option<ProfileReport> {
    let state = SAMPLER.get()?;
    let accum = state.accum.lock().unwrap_or_else(|e| e.into_inner());
    Some(ProfileReport::from_accum(state.hz, &accum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_sample_pop_round_trips() {
        // Drive the sampler synchronously: no QOC_PROFILE_HZ, no thread —
        // push/pop on this thread, sample deterministically. Other tests'
        // threads may be sampled too; assertions filter to our own names.
        let mut accum = Accum::default();
        push_span("prof.outer");
        push_span("prof.inner");
        sample_once(&mut accum);
        pop_span();
        sample_once(&mut accum);
        pop_span();
        sample_once(&mut accum);
        // This thread's slot reads are always clean (no concurrent writer);
        // torn counts may come from other tests' threads, so only the
        // samples floor and this thread's stacks are asserted.
        assert!(accum.samples >= 3);
        let folded: Vec<(&str, u64)> = accum
            .stacks
            .iter()
            .filter(|(k, _)| k.starts_with("prof.outer"))
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        assert_eq!(
            folded,
            vec![("prof.outer", 1), ("prof.outer;prof.inner", 1)],
            "one sample per stack shape"
        );
    }

    #[test]
    fn report_self_and_total_samples_are_consistent() {
        let mut accum = Accum::default();
        accum.stacks.insert("a;b".into(), 3);
        accum.stacks.insert("a".into(), 2);
        accum.stacks.insert("a;b;c".into(), 1);
        accum.samples = 6;
        let report = ProfileReport::from_accum(97, &accum);
        let span = |name: &str| {
            report
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
                .clone()
        };
        assert_eq!(span("a").self_samples, 2);
        assert_eq!(span("a").total_samples, 6);
        assert_eq!(span("b").self_samples, 3);
        assert_eq!(span("b").total_samples, 4);
        assert_eq!(span("c").self_samples, 1);
        assert_eq!(span("c").total_samples, 1);
        // Self samples over all spans equal the non-idle sample total.
        let self_sum: u64 = report.spans.iter().map(|s| s.self_samples).sum();
        assert_eq!(self_sum, 6);
        assert!(report.to_folded_text().contains("a;b;c 1\n"));
        let json = report.to_manifest_json();
        assert_eq!(json.get("hz").unwrap().as_u64(), Some(97));
        assert_eq!(
            json.get("spans")
                .unwrap()
                .get("b")
                .unwrap()
                .get("total_samples")
                .unwrap()
                .as_u64(),
            Some(4)
        );
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let a1 = intern("prof.intern.a");
        let b = intern("prof.intern.b");
        let a2 = intern("prof.intern.a");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(resolve(&[a1, b]), vec!["prof.intern.a", "prof.intern.b"]);
        // Another thread gets the same ids (global table, fresh cache).
        let a3 = std::thread::spawn(|| intern("prof.intern.a"))
            .join()
            .unwrap();
        assert_eq!(a1, a3);
    }

    #[test]
    fn overflow_depth_keeps_pops_balanced() {
        let mut accum = Accum::default();
        for _ in 0..(MAX_DEPTH + 4) {
            push_span("prof.deep");
        }
        sample_once(&mut accum);
        for _ in 0..(MAX_DEPTH + 4) {
            pop_span();
        }
        sample_once(&mut accum);
        let deep: Vec<&String> = accum
            .stacks
            .keys()
            .filter(|k| k.contains("prof.deep"))
            .collect();
        assert_eq!(deep.len(), 1, "one truncated stack shape");
        assert_eq!(deep[0].split(';').count(), MAX_DEPTH);
        // After the balanced pops the stack is empty again: the second
        // sample added no new prof.deep stack.
        assert_eq!(accum.stacks[deep[0]], 1);
    }

    #[test]
    fn concurrent_push_pop_never_panics_the_sampler() {
        // Hammer the seqlock from a writer thread while sampling from this
        // one; torn reads are allowed, panics and phantom stacks are not.
        let stop = Arc::new(AtomicBool::new(false));
        let writer_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            while !writer_stop.load(Ordering::Relaxed) {
                push_span("prof.stress.a");
                push_span("prof.stress.b");
                pop_span();
                pop_span();
            }
        });
        // Own a span on this thread too: its slot always reads cleanly, so
        // the samples floor holds even if the writer thread is slow to
        // register (1-CPU schedulers can starve it).
        push_span("prof.stress.main");
        let mut accum = Accum::default();
        for _ in 0..2_000 {
            sample_once(&mut accum);
        }
        pop_span();
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        for stack in accum.stacks.keys().filter(|k| k.contains("prof.stress")) {
            assert!(
                stack == "prof.stress.a"
                    || stack == "prof.stress.a;prof.stress.b"
                    || stack == "prof.stress.main",
                "impossible stack shape from a clean read: {stack:?}"
            );
        }
        assert!(accum.samples > 0);
    }
}
