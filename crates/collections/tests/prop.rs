//! Model-based property tests: each structure is compared against a simple
//! reference implementation under random operation sequences.

use proptest::prelude::*;
use sssj_collections::{DecayedMaxVec, LinkedHashMap};

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u16, u64),
    Remove(u16),
    PopFront,
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => any::<u16>().prop_map(MapOp::Remove),
        1 => Just(MapOp::PopFront),
    ]
}

/// Reference model: association list preserving insertion order.
#[derive(Default)]
struct ModelMap {
    entries: Vec<(u16, u64)>,
}

impl ModelMap {
    fn insert(&mut self, k: u16, v: u64) -> Option<u64> {
        for e in &mut self.entries {
            if e.0 == k {
                return Some(std::mem::replace(&mut e.1, v));
            }
        }
        self.entries.push((k, v));
        None
    }

    fn remove(&mut self, k: u16) -> Option<u64> {
        let pos = self.entries.iter().position(|e| e.0 == k)?;
        Some(self.entries.remove(pos).1)
    }

    fn pop_front(&mut self) -> Option<(u16, u64)> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }
}

proptest! {
    /// LinkedHashMap behaves like an insertion-ordered association list.
    #[test]
    fn linked_hash_map_matches_model(ops in proptest::collection::vec(map_op(), 0..300)) {
        let mut sys: LinkedHashMap<u16, u64> = LinkedHashMap::new();
        let mut model = ModelMap::default();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(sys.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(sys.remove(&k), model.remove(k));
                }
                MapOp::PopFront => {
                    prop_assert_eq!(sys.pop_front(), model.pop_front());
                }
            }
            prop_assert_eq!(sys.len(), model.entries.len());
        }
        let got: Vec<(u16, u64)> = sys.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, model.entries);
    }

    /// DecayedMaxVec equals the brute-force decayed maximum at any later
    /// query time.
    #[test]
    fn decayed_max_matches_bruteforce(
        lambda in 0.0f64..2.0,
        events in proptest::collection::vec((0u32..8, 0.0f64..1.0), 1..50),
        extra in 0.0f64..10.0,
    ) {
        let mut m = DecayedMaxVec::new(lambda);
        // Assign increasing times 0, 1, 2, ... to events.
        for (i, &(dim, v)) in events.iter().enumerate() {
            m.update(dim, i as f64, v);
        }
        let t_query = events.len() as f64 + extra;
        for dim in 0u32..8 {
            let brute = events
                .iter()
                .enumerate()
                .filter(|(_, &(d, _))| d == dim)
                .map(|(i, &(_, v))| v * (-lambda * (t_query - i as f64)).exp())
                .fold(0.0f64, f64::max);
            prop_assert!((m.get(dim, t_query) - brute).abs() < 1e-10);
        }
    }
}

#[derive(Clone, Debug)]
enum WmOp {
    /// Advance time by the gap and record (dim, value).
    Update(u8, f64, f64),
    /// Query a dimension at the current time.
    Query(u8),
}

fn wm_op() -> impl Strategy<Value = WmOp> {
    prop_oneof![
        3 => (any::<u8>(), 0.0f64..2.0, 0.0f64..1.0)
            .prop_map(|(d, gap, v)| WmOp::Update(d % 6, gap, v)),
        2 => any::<u8>().prop_map(|d| WmOp::Query(d % 6)),
    ]
}

proptest! {
    /// WindowedMaxVec matches a naive scan over the retained trace.
    #[test]
    fn windowed_max_matches_naive(
        ops in proptest::collection::vec(wm_op(), 0..300),
        window in 0.5f64..10.0,
    ) {
        let mut sys = sssj_collections::WindowedMaxVec::new(window);
        let mut trace: Vec<(u8, f64, f64)> = Vec::new();
        let mut t = 0.0;
        for op in ops {
            match op {
                WmOp::Update(d, gap, v) => {
                    t += gap;
                    sys.update(d as u32, t, v);
                    trace.push((d, t, v));
                }
                WmOp::Query(d) => {
                    let naive = trace
                        .iter()
                        .filter(|&&(td, ts, _)| td == d && t - ts <= window)
                        .map(|&(_, _, v)| v)
                        .fold(0.0f64, f64::max);
                    prop_assert_eq!(sys.max(d as u32, t), naive);
                }
            }
        }
    }

    /// The windowed max upper-bounds the decayed max for exponential
    /// decay — the soundness fact the generic decay join relies on.
    #[test]
    fn windowed_max_dominates_decayed_max(
        updates in proptest::collection::vec(
            (0u32..4, 0.0f64..1.0, 0.01f64..1.0), 1..100),
        lambda in 0.01f64..1.0,
    ) {
        let window = 50.0;
        let mut wm = sssj_collections::WindowedMaxVec::new(window);
        let mut dm = DecayedMaxVec::new(lambda);
        let mut t = 0.0;
        for (d, gap, v) in updates {
            t += gap;
            wm.update(d, t, v);
            dm.update(d, t, v);
            // Everything is within the window here, so the undecayed max
            // must dominate the decayed one.
            for probe in 0..4 {
                prop_assert!(wm.max(probe, t) >= dm.get(probe, t) - 1e-12);
            }
        }
    }
}
