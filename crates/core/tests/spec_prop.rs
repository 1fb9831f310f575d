//! Property tests for the spec layer: `JoinSpec` → compact string →
//! `JoinSpec` and `JoinSpec` → JSON → `JoinSpec` are the identity, for
//! every engine and wrapper combination the grammar admits.

use proptest::prelude::*;
use sssj_core::{DecaySpec, EngineSpec, JoinSpec, LshSpec, ShardedInner, WrapperSpec};
use sssj_index::IndexKind;
use sssj_types::DecayModel;

fn index_kind() -> impl Strategy<Value = IndexKind> {
    prop_oneof![
        Just(IndexKind::L2),
        Just(IndexKind::L2ap),
        Just(IndexKind::Ap),
        Just(IndexKind::Inv),
    ]
}

fn decay_model() -> impl Strategy<Value = DecayModel> {
    prop_oneof![
        (1u32..100).prop_map(|l| DecayModel::exponential(l as f64 / 100.0)),
        (1u32..1000).prop_map(|w| DecayModel::sliding_window(w as f64)),
        (1u32..1000).prop_map(|w| DecayModel::linear(w as f64)),
        ((1u32..40), (1u32..100))
            .prop_map(|(a, s)| DecayModel::polynomial(a as f64 / 10.0, s as f64)),
    ]
}

fn decay_spec() -> impl Strategy<Value = DecaySpec> {
    (decay_model(), any::<bool>()).prop_map(|(model, window_max)| DecaySpec { model, window_max })
}

fn lsh_spec() -> impl Strategy<Value = LshSpec> {
    // (bits, bands) pairs restricted to valid shapes (bands divides
    // bits, rows ≤ 64).
    let lsh_shape = prop_oneof![
        Just((64u32, 8u32)),
        Just((128, 2)),
        Just((128, 16)),
        Just((256, 32)),
        Just((256, 4)),
        Just((512, 64)),
    ];
    (lsh_shape, any::<u64>(), any::<bool>()).prop_map(|((bits, bands), seed, estimate)| LshSpec {
        bits,
        bands,
        seed,
        estimate,
    })
}

fn sharded_inner() -> impl Strategy<Value = ShardedInner> {
    prop_oneof![
        Just(ShardedInner::Streaming),
        Just(ShardedInner::MiniBatch),
        decay_spec().prop_map(ShardedInner::GenericDecay),
        lsh_spec().prop_map(ShardedInner::Lsh),
    ]
}

fn engine() -> impl Strategy<Value = EngineSpec> {
    prop_oneof![
        Just(EngineSpec::Streaming),
        Just(EngineSpec::MiniBatch),
        decay_spec().prop_map(EngineSpec::GenericDecay),
        (1u32..50).prop_map(EngineSpec::TopK),
        lsh_spec().prop_map(EngineSpec::Lsh),
        ((1u32..=64), sharded_inner())
            .prop_map(|(shards, inner)| EngineSpec::Sharded { shards, inner }),
    ]
}

/// A full spec: engine plus parameters plus a wrapper stack that
/// respects the cross-parameter rules (`validate()` must accept it —
/// that is itself part of the property).
fn join_spec() -> impl Strategy<Value = JoinSpec> {
    (
        (
            engine(),
            index_kind(),
            1u32..=100,   // theta × 100
            1u32..10_000, // lambda × 10000
        ),
        (
            any::<bool>(),                      // checked
            proptest::option::of(0u32..10_000), // reorder slack × 100
            any::<bool>(),                      // reorder before checked?
            proptest::option::of(prop_oneof![
                // durable directory (grammar-safe characters only)
                Just("/var/sssj"),
                Just("rel/store.d"),
                Just("/tmp/sssj-∂-unicode"),
            ]),
            any::<bool>(), // graph
        ),
    )
        .prop_map(
            |(
                (engine, index, theta, lambda),
                (checked, reorder, reorder_first, durable, graph),
            )| {
                let mut spec = JoinSpec {
                    engine,
                    // decay is L2-only and lsh carries no index (directly
                    // or as a sharded inner); the canonical form omits the
                    // index for those.
                    index: if engine.uses_index() {
                        index
                    } else {
                        IndexKind::L2
                    },
                    theta: theta as f64 / 100.0,
                    lambda: match engine {
                        // decay engines pin λ = 0 (the model carries it);
                        // lsh needs λ > 0 for a finite horizon.
                        EngineSpec::GenericDecay(_)
                        | EngineSpec::Sharded {
                            inner: ShardedInner::GenericDecay(_),
                            ..
                        } => 0.0,
                        _ => lambda as f64 / 10_000.0,
                    },
                    wrappers: Vec::new(),
                };
                // Durable wraps the engine innermost, excludes checked,
                // and only supports replayable engines.
                let durable_ok = matches!(
                    engine,
                    EngineSpec::Streaming | EngineSpec::MiniBatch | EngineSpec::GenericDecay(_)
                ) || matches!(
                    &engine,
                    EngineSpec::Sharded { inner, .. } if !matches!(inner, ShardedInner::Lsh(_))
                );
                let durable = durable.filter(|_| durable_ok);
                if let Some(dir) = &durable {
                    spec.wrappers.push(WrapperSpec::Durable(dir.to_string()));
                }
                let checked_ok = durable.is_none()
                    && matches!(
                        engine,
                        EngineSpec::Streaming
                            | EngineSpec::MiniBatch
                            | EngineSpec::Sharded {
                                inner: ShardedInner::Streaming | ShardedInner::MiniBatch,
                                ..
                            }
                    );
                // Graph rides any engine; with durable it must sit
                // directly above (position 1), which pushing here —
                // right after the durable base — satisfies.
                if graph {
                    spec.wrappers.push(WrapperSpec::Graph);
                }
                let reorder = reorder.map(|s| WrapperSpec::Reorder(s as f64 / 100.0));
                if reorder_first {
                    spec.wrappers.extend(reorder.clone());
                }
                if checked && checked_ok {
                    spec.wrappers.push(WrapperSpec::Checked);
                }
                if !reorder_first {
                    spec.wrappers.extend(reorder);
                }
                spec
            },
        )
}

proptest! {
    /// Every generated spec is valid, and Display → FromStr is the
    /// identity on it.
    #[test]
    fn compact_form_roundtrips(spec in join_spec()) {
        prop_assert!(spec.validate().is_ok(), "{spec:?}");
        let s = spec.to_string();
        let back: JoinSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        prop_assert_eq!(&back, &spec, "{}", s);
        // The canonical form is a fixed point of parse → display.
        prop_assert_eq!(back.to_string(), s);
    }

    /// to_json → from_json is the identity.
    #[test]
    fn json_form_roundtrips(spec in join_spec()) {
        let json = spec.to_json();
        let back = JoinSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        prop_assert_eq!(back, spec, "{}", json);
    }

    /// Core-buildable specs actually build, and the built join's name is
    /// stable across a spec round-trip.
    #[test]
    fn core_specs_build_identically_after_roundtrip(spec in join_spec()) {
        // LSH/sharded constructors and the durable store live in
        // downstream crates; building them here would need their
        // registration hooks (and, for durable, a filesystem directory).
        let buildable_here = !matches!(
            spec.engine,
            EngineSpec::Lsh(_) | EngineSpec::Sharded { .. }
        ) && !spec
            .wrappers
            .iter()
            .any(|w| matches!(w, WrapperSpec::Durable(_) | WrapperSpec::Graph));
        if buildable_here {
            let a = spec.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
            let reparsed: JoinSpec = spec.to_string().parse().unwrap();
            let b = reparsed.build().unwrap();
            prop_assert_eq!(a.name(), b.name());
        }
    }
}
