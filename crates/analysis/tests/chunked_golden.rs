//! Golden re-chunking: the chunked store holds the same records whatever
//! its chunk size.
//!
//! A real smoke-scale campaign trace, re-encoded into deliberately tiny
//! chunks, must equal the default 64k-chunk store it came from, record
//! for record and field for field (wire lengths are provenance and are not
//! compared).

use behavior::{run_population, PopulationConfig};
use trace::{MessageColumns, Trace};

#[test]
fn rechunked_store_equals_the_default_store() {
    let trace = run_population(&PopulationConfig::smoke());

    // Re-encode the message columns into tiny chunks.
    let (mut records, mut wires) = (Vec::new(), Vec::new());
    let mut cur = trace.messages.cursor();
    while let Some((m, wire)) = cur.next_with_wire() {
        records.push(m);
        wires.push(wire);
    }
    let mut rebuilt = MessageColumns::default();
    rebuilt.configure_chunks(4_096);
    rebuilt.push_batch(&records, &wires);
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
    assert_eq!(rechunked, trace, "trace equality across configs");
}
