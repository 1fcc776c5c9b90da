//! Trains the default cascade and writes it to stdout in the text model
//! format — the generator of the shipped `models/default.cascade`:
//!
//! ```text
//! cargo run --release -p sdvbs-facedetect --example export_cascade \
//!     > crates/facedetect/models/default.cascade
//! ```

use sdvbs_facedetect::{Cascade, CascadeConfig};
use sdvbs_profile::Profiler;
use std::io::Write;

fn main() {
    let mut prof = Profiler::new();
    let cascade = Cascade::train(&CascadeConfig::default(), &mut prof)
        .expect("default training configuration succeeds");
    let mut out = std::io::stdout().lock();
    cascade
        .write_to(&mut out)
        .expect("write the model to stdout");
    out.flush().expect("flush stdout");
}
