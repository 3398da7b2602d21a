//! Golden round-trip: the chunked store's JSONL export is byte-identical
//! across chunk configurations.
//!
//! The JSONL interchange format is frozen (the unit-level golden literal
//! lives in `trace::store`); this test pins the property end-to-end at
//! smoke scale: a real campaign trace, re-encoded into deliberately tiny
//! chunks, must export the very same bytes the default 64k-chunk store
//! exports.

use behavior::{run_population, PopulationConfig};
use trace::{MessageColumns, Trace};

#[test]
fn jsonl_export_is_byte_identical_across_chunk_configs() {
    let trace = run_population(&PopulationConfig::smoke());
    let mut golden = Vec::new();
    trace.write_jsonl(&mut golden).unwrap();

    // Re-encode the message columns into tiny chunks.
    let mut rebuilt = MessageColumns::new();
    rebuilt.configure_chunks(4_096);
    let mut cur = trace.messages.cursor();
    while let Some((m, wire)) = cur.next_with_wire() {
        rebuilt.push_with_wire(m, wire);
    }
    assert!(
        rebuilt.sealed_chunks() > 10,
        "re-encoding must seal many chunks ({} messages)",
        rebuilt.len()
    );
    assert_eq!(rebuilt, trace.messages, "store equality across configs");

    let rechunked = Trace {
        connections: trace.connections.clone(),
        messages: rebuilt,
        wire_bytes: trace.wire_bytes,
    };
    let mut export = Vec::new();
    rechunked.write_jsonl(&mut export).unwrap();
    assert!(
        export == golden,
        "JSONL export diverged across chunk configs ({} vs {} bytes)",
        export.len(),
        golden.len()
    );

    // And the frozen format still reads back into the identical trace.
    let back = Trace::read_jsonl(golden.as_slice()).unwrap();
    assert_eq!(back, trace);
}
