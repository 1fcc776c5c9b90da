//! SD-VBS benchmark 7: **Face Detection** — the Viola–Jones detector.
//!
//! The detector locates human faces in images via three components the
//! paper names "extract faces" (pixel-granularity preprocessing and
//! feature extraction), "extract face sequence" and "stabilize face
//! windows". Its defining kernels are the **integral image** (constant-
//! time rectangle sums), **Haar-like rectangle features**, and
//! **AdaBoost** (cited explicitly as one of the suite's most complex
//! kernels), organized into an attentional cascade scanned over a
//! multi-scale sliding window.
//!
//! The original SD-VBS code ships a cascade trained offline on a face
//! corpus that isn't distributed with the paper. This reproduction trains
//! its own cascade with AdaBoost over decision stumps, on synthetically
//! rendered faces and hard-negative clutter from [`sdvbs_synth`], and
//! ships the result pre-trained just as SD-VBS does: the default cascade
//! is trained once, offline, by [`Cascade::train`] with
//! [`CascadeConfig::default`], committed as `models/default.cascade`, and
//! embedded in the crate as [`Cascade::pretrained`]. Training stays
//! available for other configurations and the Adaboost kernel (see
//! DESIGN.md §5 for the substitution rationale).
//!
//! # Examples
//!
//! ```
//! use sdvbs_facedetect::{Cascade, detect_faces, DetectorConfig};
//! use sdvbs_profile::Profiler;
//! use sdvbs_synth::face_scene;
//!
//! let mut prof = Profiler::new();
//! let scene = face_scene(160, 120, 7, 2);
//! let cascade = Cascade::pretrained();
//! let found = detect_faces(&scene.image, cascade, &DetectorConfig::default(), &mut prof);
//! assert!(!found.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boost;
mod cascade;
mod haar;
mod model_io;

pub use boost::{train_adaboost, StrongClassifier, Stump};
pub use cascade::{
    detect_faces, try_detect_faces, Cascade, CascadeConfig, CascadeError, DetectError, Detection,
    DetectorConfig,
};
pub use haar::{generate_features, HaarFeature, HaarKind, NormalizedWindow};
pub use model_io::ModelIoError;
