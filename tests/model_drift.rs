//! Drift guard for the shipped Face Detection model.
//!
//! `crates/facedetect/models/default.cascade` is the output of training
//! the default configuration, embedded in the crate so no process pays
//! for training. This test retrains it and fails, with the regeneration
//! command, as soon as the trainer, the synthetic renderer or the model
//! format stops reproducing the committed file exactly.

use sdvbs::facedetect::{Cascade, CascadeConfig};
use sdvbs::profile::Profiler;

const COMMITTED: &str = include_str!("../crates/facedetect/models/default.cascade");

const REGENERATE: &str = "regenerate the shipped model with\n    \
    cargo run --release -p sdvbs-facedetect --example export_cascade \
    > crates/facedetect/models/default.cascade";

#[test]
fn shipped_cascade_equals_fresh_default_training() {
    let mut prof = Profiler::new();
    let trained =
        Cascade::train(&CascadeConfig::default(), &mut prof).expect("default training succeeds");
    assert!(
        trained == *Cascade::pretrained(),
        "the embedded cascade differs from a fresh default training; {REGENERATE}"
    );
    let mut bytes = Vec::new();
    trained.write_to(&mut bytes).expect("write to memory");
    assert!(
        bytes == COMMITTED.as_bytes(),
        "the serialized default training differs from the committed model file; {REGENERATE}"
    );
}
