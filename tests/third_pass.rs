//! Cross-crate integration of the third-pass extensions, exercised
//! through the `sssj` facade the way a downstream user would: advisor →
//! config → network service fed by an incremental reader with jittered
//! delivery, checked against an equivalent local join.

use sssj::core::advisor;
use sssj::data::{generate, preset, BinaryStreamReader, Preset, TextStreamReader};
use sssj::net::{ConfigRequest, JoinClient, Server, ServerOptions};
use sssj::prelude::*;
use sssj::types::ForwardDecay;

fn keys(pairs: &[SimilarPair]) -> Vec<(u64, u64)> {
    let mut k: Vec<_> = pairs.iter().map(|p| p.key()).collect();
    k.sort_unstable();
    k.dedup();
    k
}

#[test]
fn advisor_to_service_pipeline() {
    // 1. Parameters from labeled judgments (§3).
    let advice = advisor::advise_from_examples(&[0.7], &[300.0]).expect("valid judgments");
    let config = advice.config();

    // 2. A stream serialised to the binary format and read back
    //    incrementally.
    let records = generate(&preset(Preset::Rcv1, 400));
    let mut file = Vec::new();
    sssj::data::binary::write_binary(&records, &mut file).unwrap();
    let reader = BinaryStreamReader::new(&file[..]).unwrap();

    // 3. Reference output through the local join.
    let mut local = Streaming::new(config, IndexKind::L2);
    let want = keys(&run_stream(&mut local, &records));

    // 4. The same stream over the network service, delivered with
    //    bounded jitter and healed by server-side slack.
    let server = Server::bind("127.0.0.1:0", ServerOptions::default()).unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client
        .configure(ConfigRequest {
            theta: Some(config.theta),
            lambda: Some(config.lambda),
            slack: Some(50.0),
            ..Default::default()
        })
        .unwrap();
    let mut streamed: Vec<StreamRecord> = reader.map(|r| r.unwrap()).collect();
    // Swap a few adjacent records: disorder well within the slack.
    for i in (1..streamed.len()).step_by(7) {
        streamed.swap(i - 1, i);
    }
    let mut got = Vec::new();
    for r in &streamed {
        got.extend(client.send_record(r).unwrap());
    }
    got.extend(client.finish().unwrap());
    client.quit().unwrap();
    server.shutdown();

    // Server ids are arrival ordinals of the *jittered* order; map them
    // back to the original ids before comparing.
    let remapped: Vec<SimilarPair> = got
        .iter()
        .map(|p| {
            SimilarPair::new(
                streamed[p.left as usize].id,
                streamed[p.right as usize].id,
                p.similarity,
            )
        })
        .collect();
    assert_eq!(keys(&remapped), want);
}

#[test]
fn reorder_buffer_composes_with_builder_and_readers() {
    let records = generate(&preset(Preset::Tweets, 300));
    let mut text = Vec::new();
    sssj::data::text::write_text(&records, &mut text).unwrap();

    let direct: Vec<SimilarPair> = JoinBuilder::new(0.6, 0.01).pairs(records).collect();
    let via_reader: Vec<SimilarPair> = JoinBuilder::new(0.6, 0.01)
        .reorder_slack(1.0) // sorted input: the buffer must be transparent
        .pairs(TextStreamReader::new(&text[..]).map(|r| r.unwrap()))
        .collect();
    assert_eq!(keys(&direct), keys(&via_reader));
}

#[test]
fn forward_decay_agrees_with_join_scores() {
    // Every pair score the join reports can be re-derived through the
    // forward formulation.
    let records = generate(&preset(Preset::Rcv1, 300));
    let (theta, lambda) = (0.5, 0.01);
    let mut join = Streaming::new(SssjConfig::new(theta, lambda), IndexKind::L2);
    let pairs = run_stream(&mut join, &records);
    assert!(!pairs.is_empty(), "test needs output to check");
    let fwd = ForwardDecay::new(lambda);
    for p in &pairs {
        let (x, y) = (&records[p.left as usize], &records[p.right as usize]);
        let via_forward = fwd.apply(x.vector.dot(&y.vector), x.t, y.t);
        assert!(
            (via_forward - p.similarity).abs() < 1e-9,
            "pair {:?}: forward {} vs reported {}",
            p.key(),
            via_forward,
            p.similarity
        );
    }
}
