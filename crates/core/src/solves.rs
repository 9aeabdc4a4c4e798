//! Posterior query work shared across cameras and kept across the BO
//! iterations of one decide.
//!
//! Cameras with the same observation history share one GP factor, and
//! all factors of one objective share its design prefix, so the work of
//! a query splits into a design-row solve per (prefix, input)
//! ([`PrefixSolve`]) and a tail solve per (factor, input)
//! ([`FactorSolve`]).
//!
//! Algorithm 2 rescans the same candidate pool after every batch it
//! observes, and observing a batch grows each factor's tail but leaves
//! its design prefix alone. So a decide's [`SolveStore`] computes each
//! design-row solve once, and every later scan and bank update reads
//! it. A design-row solve that neither a scan nor the bank updates
//! since the scan before it read is dropped when that scan ends.
//! Entries are keyed by prefix serial numbers, which are never reused,
//! so a prefix freed and a new one allocated in its place never share
//! a solve.
//!
//! Tail solves are not kept: a scan solves each distinct (factor,
//! input) once, factor by factor, and hands the solve to every model on
//! the factor. Keeping each query's solved tail rows for the next scan
//! would halve the paper-scale decide's posterior work, but it raises
//! that decide's peak memory (DESIGN §12).

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use eva_workload::profiler::N_FEATURES;

use crate::gp::{FactorSolve, GpModel, PrefixSolve};

/// The hasher of the memo maps, whose keys are serial numbers, slot
/// numbers and feature bits: one multiply-rotate round per 64-bit word
/// (the `FxHash` scheme), rotated on finish so the bucket index sees the
/// well-mixed high bits. Fixed, so a pass hashes the same way in every
/// run; nothing depends on it beyond lookup speed.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0; 8];
            w.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A design-row solve's key: the prefix serial and the query's bits.
type PrefixKey = (u64, [u64; N_FEATURES]);

/// The key of a dropped design-row solve: no prefix has serial 0.
const DROPPED: PrefixKey = (0, [0; N_FEATURES]);

/// The design-row solves of one decide, and the last scan's prefix slot
/// of every query. See the module docs for what is kept and when it is
/// dropped.
#[derive(Default)]
pub(crate) struct SolveStore {
    /// Slot of every live design-row solve.
    index: IdMap<PrefixKey, usize>,
    /// Design-row solves by slot, with their keys; a dropped slot holds
    /// [`DROPPED`] and an empty solve, and is never handed out again.
    prefixes: Vec<(PrefixKey, PrefixSolve)>,
    /// Whether each slot was read since the last scan ended.
    read: Vec<bool>,
    /// Design-row solves computed so far.
    computed: usize,
    /// Prefix slot of every query of the last scan, in query order.
    layout: Vec<u32>,
}

/// The work of one [`SolveStore::scan`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanWork {
    /// Posterior queries answered.
    pub(crate) queries: usize,
    /// Design-row solves computed (the rest were kept from earlier
    /// passes).
    pub(crate) prefix_solves: usize,
    /// Distinct (factor, query) slots solved.
    pub(crate) tail_solves: usize,
    /// Tail rows forward-solved for those slots.
    pub(crate) tail_rows: usize,
}

impl SolveStore {
    /// Design-row solves computed by this store so far.
    pub(crate) fn prefix_solves(&self) -> usize {
        self.computed
    }

    /// Slot of `model`'s design-row solve at `x`, solving it on first
    /// sight.
    pub(crate) fn prefix_slot(&mut self, model: &GpModel, x: &[f64; N_FEATURES]) -> usize {
        let key = (model.prefix_id(), x.map(f64::to_bits));
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.prefixes.len();
                self.prefixes.push((key, model.prefix_solve(x)));
                self.read.push(false);
                self.index.insert(key, slot);
                self.computed += 1;
                slot
            }
        };
        self.read[slot] = true;
        slot
    }

    /// The design-row solve at `slot`.
    pub(crate) fn prefix(&self, slot: usize) -> &PrefixSolve {
        &self.prefixes[slot].1
    }

    /// Posterior `(mean, latent variance)` of every query of one scan,
    /// in query order, and the work it took. Batch `b` holds the
    /// queries `offsets[b]..offsets[b + 1]` of `models[b]`; `x(b, q)`
    /// is the input of query `q`.
    ///
    /// A query whose design-row solve key matches the last scan's query
    /// at the same position takes that slot without hashing. The
    /// batches are then taken factor by factor: a factor's distinct
    /// queries are solved once each, and every batch on the factor
    /// takes its mean dots from those solves. Bit-identical to
    /// `GpModel::predict` of every query.
    pub(crate) fn scan(
        &mut self,
        models: &[&GpModel],
        offsets: &[usize],
        x: impl Fn(usize, usize) -> [f64; N_FEATURES],
    ) -> (Vec<(f64, f64)>, ScanWork) {
        let n = offsets.last().copied().unwrap_or(0);
        let computed = self.computed;
        let queries = |b: usize| offsets[b]..offsets[b + 1];

        // Prefix slot of every query, rewritten in place.
        self.layout.resize(n, u32::MAX);
        for (b, model) in models.iter().enumerate() {
            let prefix = model.prefix_id();
            for q in queries(b) {
                let point = x(b, q);
                let kept = self.layout[q] as usize;
                let slot = match self.prefixes.get(kept) {
                    Some((key, _)) if *key == (prefix, point.map(f64::to_bits)) => {
                        self.read[kept] = true;
                        kept
                    }
                    _ => self.prefix_slot(model, &point),
                };
                self.layout[q] = slot as u32;
            }
        }

        // Batches grouped by factor, in batch order within a factor.
        let mut order: Vec<usize> = (0..models.len()).collect();
        order.sort_by_key(|&b| models[b].factor_id());
        let mut posts = vec![(0.0, 0.0); n];
        let mut work = ScanWork {
            queries: n,
            ..ScanWork::default()
        };
        // `slot_of[prefix]`: the factor group that last solved the query
        // at that design-row slot, and where its solve sits.
        let mut slot_of: Vec<(usize, usize)> = vec![(usize::MAX, 0); self.prefixes.len()];
        let mut solves: Vec<FactorSolve> = Vec::new();
        let mut y = Vec::new();
        let same_factor = |a: &usize, b: &usize| models[*a].factor_id() == models[*b].factor_id();
        for (group, batches) in order.chunk_by(same_factor).enumerate() {
            let mut used = 0;
            for &b in batches {
                let model = models[b];
                for q in queries(b) {
                    let prefix = self.layout[q] as usize;
                    let pre = &self.prefixes[prefix].1;
                    let point = x(b, q);
                    let (solver, slot) = &mut slot_of[prefix];
                    if *solver != group {
                        *solver = group;
                        *slot = used;
                        if solves.len() == used {
                            solves.push(FactorSolve::default());
                        }
                        work.tail_rows +=
                            model.factor_solve_into(&point, pre, &mut y, &mut solves[used]);
                        used += 1;
                    }
                    posts[q] = model.predict_with(&point, pre, &solves[*slot]);
                }
            }
            work.tail_solves += used;
        }
        self.drop_unread();
        work.prefix_solves = self.computed - computed;
        (posts, work)
    }

    /// Drop every design-row solve read neither by the scan that just
    /// ended nor by the bank updates before it.
    fn drop_unread(&mut self) {
        for (slot, read) in self.read.iter_mut().enumerate() {
            let entry = &mut self.prefixes[slot];
            if !*read && entry.0 != DROPPED {
                self.index.remove(&entry.0);
                *entry = (DROPPED, PrefixSolve::default());
            }
            *read = false;
        }
    }
}

/// The distinct (factor, design-row solve) slots of one bank pass,
/// numbered in insertion order, so no output depends on the map's
/// hasher.
#[derive(Default)]
pub(crate) struct SolveMemo {
    /// Keyed by factor serial and prefix slot (which stands for the
    /// input); the value is the factor slot.
    factors: IdMap<(u64, usize), usize>,
    /// Prefix slot of every factor slot.
    factor_prefix: Vec<usize>,
}

impl SolveMemo {
    /// Slot of the work of factor `factor` at the query whose design-row
    /// solve sits at `prefix`, registering it on first sight.
    pub(crate) fn slot(&mut self, factor: u64, prefix: usize) -> usize {
        let factor_prefix = &mut self.factor_prefix;
        *self.factors.entry((factor, prefix)).or_insert_with(|| {
            factor_prefix.push(prefix);
            factor_prefix.len() - 1
        })
    }

    /// Empty cells for the factor-level work of every registered slot,
    /// filled on first use.
    pub(crate) fn finish<T>(self) -> SharedWork<T> {
        let work = self
            .factor_prefix
            .into_iter()
            .map(|p| (p, OnceCell::new()))
            .collect();
        SharedWork { work }
    }
}

/// The factor-level work of one pass, filled on first use by whichever
/// camera reaches a slot first. Every camera that reaches a slot
/// receives the same value, computed from the same factor and input, so
/// the result does not depend on which camera fills it.
pub(crate) struct SharedWork<T> {
    /// Prefix slot and value of every factor slot.
    work: Vec<(usize, OnceCell<T>)>,
}

impl<T> SharedWork<T> {
    /// The work at `slot`, computed on first use from the slot's
    /// design-row solve slot.
    pub(crate) fn get(&self, slot: usize, work: impl FnOnce(usize) -> T) -> &T {
        let (prefix, cell) = &self.work[slot];
        cell.get_or_init(|| work(*prefix))
    }

    /// The factor-level work computed so far.
    pub(crate) fn computed(&self) -> impl Iterator<Item = &T> {
        self.work.iter().filter_map(|(_, cell)| cell.get())
    }
}
