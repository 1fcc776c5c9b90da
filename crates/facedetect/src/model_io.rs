//! Cascade model serialization.
//!
//! SD-VBS ships its Viola–Jones model pre-trained; so does this
//! reproduction. The default cascade is trained once, offline, committed
//! as `models/default.cascade` and embedded in the crate
//! ([`Cascade::pretrained`]); any other cascade can be saved and loaded
//! the same way. The format is a small, versioned, line-oriented text
//! file (stable across platforms, diffable, no serialization dependency).

use crate::boost::{StrongClassifier, Stump};
use crate::cascade::Cascade;
use crate::haar::{HaarFeature, HaarKind};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;

/// Errors from cascade model I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelIoError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid cascade model (message pinpoints the
    /// offending line).
    Malformed(String),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "cascade model i/o failed: {e}"),
            ModelIoError::Malformed(m) => write!(f, "malformed cascade model: {m}"),
        }
    }
}

impl Error for ModelIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

const MAGIC: &str = "SDVBS-CASCADE 1";

fn kind_name(kind: HaarKind) -> &'static str {
    match kind {
        HaarKind::TwoVertical => "two_v",
        HaarKind::TwoHorizontal => "two_h",
        HaarKind::ThreeHorizontal => "three_h",
        HaarKind::ThreeVertical => "three_v",
        HaarKind::Four => "four",
    }
}

fn kind_from(name: &str) -> Option<HaarKind> {
    Some(match name {
        "two_v" => HaarKind::TwoVertical,
        "two_h" => HaarKind::TwoHorizontal,
        "three_h" => HaarKind::ThreeHorizontal,
        "three_v" => HaarKind::ThreeVertical,
        "four" => HaarKind::Four,
        _ => return None,
    })
}

/// The default cascade, trained offline by
/// `Cascade::train(&CascadeConfig::default(), ..)` and committed as
/// `models/default.cascade`; the `export_cascade` example regenerates it.
const PRETRAINED: &str = include_str!("../models/default.cascade");

/// Upper bound on a stage's stump count; keeps a corrupt count from
/// driving a huge allocation.
const MAX_STUMPS: usize = 100_000;

impl Cascade {
    /// The shipped default cascade — bit-identical to
    /// `Cascade::train(&CascadeConfig::default(), ..)` — parsed once per
    /// process from the model embedded in the crate (microseconds, where
    /// training takes about a second).
    ///
    /// # Panics
    ///
    /// Panics if the embedded model does not parse, which the crate's
    /// tests rule out.
    pub fn pretrained() -> &'static Cascade {
        static CASCADE: OnceLock<Cascade> = OnceLock::new();
        CASCADE.get_or_init(|| {
            Cascade::read_from(PRETRAINED.as_bytes()).expect("embedded default cascade parses")
        })
    }

    /// Serializes the cascade in the text model format.
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Io`] if the writer fails.
    pub fn write_to(&self, mut out: impl Write) -> Result<(), ModelIoError> {
        writeln!(out, "{MAGIC}")?;
        writeln!(out, "window {}", self.window())?;
        writeln!(out, "stages {}", self.stages())?;
        for stage in self.stage_slice() {
            writeln!(out, "stage {} {:.17e}", stage.stumps.len(), stage.threshold)?;
            for stump in &stage.stumps {
                let feat = stage.features[stump.feature];
                writeln!(
                    out,
                    "stump {} {} {} {} {} {:.17e} {} {:.17e}",
                    kind_name(feat.kind),
                    feat.x,
                    feat.y,
                    feat.w,
                    feat.h,
                    stump.threshold,
                    stump.polarity as i8,
                    stump.alpha
                )?;
            }
        }
        Ok(())
    }

    /// Parses a cascade written by [`Cascade::write_to`].
    ///
    /// # Errors
    ///
    /// * [`ModelIoError::Io`] if the reader fails.
    /// * [`ModelIoError::Malformed`] for syntax errors, wrong magic, or
    ///   inconsistent counts.
    pub fn read_from(input: impl BufRead) -> Result<Cascade, ModelIoError> {
        let mut lines = input.lines();
        let mut next = |what: &str| -> Result<String, ModelIoError> {
            lines
                .next()
                .transpose()?
                .ok_or_else(|| ModelIoError::Malformed(format!("missing {what}")))
        };
        if next("magic")? != MAGIC {
            return Err(ModelIoError::Malformed("bad magic line".into()));
        }
        let window: usize = parse_kv(&next("window line")?, "window")?;
        let n_stages: usize = parse_kv(&next("stages line")?, "stages")?;
        if window < 12 || n_stages == 0 || n_stages > 1000 {
            return Err(ModelIoError::Malformed(format!(
                "implausible header: window {window}, stages {n_stages}"
            )));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for s in 0..n_stages {
            let line = next("stage line")?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("stage") {
                return Err(ModelIoError::Malformed(format!(
                    "stage {s}: expected 'stage'"
                )));
            }
            let n_stumps: usize = parse_tok(parts.next(), "stump count")?;
            if n_stumps > MAX_STUMPS {
                return Err(ModelIoError::Malformed(format!(
                    "stage {s}: implausible stump count {n_stumps}"
                )));
            }
            let threshold: f64 = parse_tok(parts.next(), "stage threshold")?;
            let mut stumps = Vec::with_capacity(n_stumps);
            let mut features = Vec::with_capacity(n_stumps);
            for k in 0..n_stumps {
                let line = next("stump line")?;
                let mut p = line.split_whitespace();
                if p.next() != Some("stump") {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: expected 'stump'"
                    )));
                }
                let kind = kind_from(p.next().unwrap_or("")).ok_or_else(|| {
                    ModelIoError::Malformed(format!("stage {s} stump {k}: bad kind"))
                })?;
                let x: usize = parse_tok(p.next(), "x")?;
                let y: usize = parse_tok(p.next(), "y")?;
                let w: usize = parse_tok(p.next(), "w")?;
                let h: usize = parse_tok(p.next(), "h")?;
                if x + w > window || y + h > window || w < 2 || h < 2 {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: feature outside the window"
                    )));
                }
                let threshold: f64 = parse_tok(p.next(), "stump threshold")?;
                let polarity: i8 = parse_tok(p.next(), "polarity")?;
                if polarity != 1 && polarity != -1 {
                    return Err(ModelIoError::Malformed(format!(
                        "stage {s} stump {k}: polarity must be +-1"
                    )));
                }
                let alpha: f64 = parse_tok(p.next(), "alpha")?;
                features.push(HaarFeature { kind, x, y, w, h });
                stumps.push(Stump {
                    feature: k,
                    threshold,
                    polarity: polarity as f64,
                    alpha,
                });
            }
            stages.push(StrongClassifier {
                stumps,
                threshold,
                features,
            });
        }
        Ok(Cascade::from_parts(stages, window))
    }

    /// Writes the cascade to a text model file (see [`Cascade::write_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
        let mut out = BufWriter::new(File::create(path)?);
        self.write_to(&mut out)?;
        out.flush()?;
        Ok(())
    }

    /// Reads a cascade from a text model file (see [`Cascade::read_from`]).
    ///
    /// # Errors
    ///
    /// * [`ModelIoError::Io`] on filesystem failure.
    /// * [`ModelIoError::Malformed`] for syntax errors, wrong magic, or
    ///   inconsistent counts.
    pub fn load(path: impl AsRef<Path>) -> Result<Cascade, ModelIoError> {
        Cascade::read_from(BufReader::new(File::open(path)?))
    }
}

fn parse_kv<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, ModelIoError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(ModelIoError::Malformed(format!(
            "expected '{key}' line, got {line:?}"
        )));
    }
    parse_tok(parts.next(), key)
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, ModelIoError> {
    tok.ok_or_else(|| ModelIoError::Malformed(format!("missing {what}")))?
        .parse()
        .map_err(|_| ModelIoError::Malformed(format!("invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::CascadeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdvbs_profile::Profiler;
    use sdvbs_synth::{render_face_patch, render_non_face_patch};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sdvbs_cascade_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip_preserves_decisions() {
        let mut prof = Profiler::new();
        let cfg = CascadeConfig {
            positives: 80,
            negatives: 80,
            stage_rounds: vec![3, 5],
            ..CascadeConfig::default()
        };
        let cascade = Cascade::train(&cfg, &mut prof).unwrap();
        let path = tmp("roundtrip.txt");
        cascade.save(&path).unwrap();
        let loaded = Cascade::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, cascade);
        // Identical decisions on fresh patches.
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..60 {
            let face = render_face_patch(24, &mut rng);
            let clutter = render_non_face_patch(24, &mut rng);
            assert_eq!(cascade.accepts_patch(&face), loaded.accepts_patch(&face));
            assert_eq!(
                cascade.accepts_patch(&clutter),
                loaded.accepts_patch(&clutter)
            );
        }
    }

    fn parse(text: &str) -> Result<Cascade, ModelIoError> {
        Cascade::read_from(text.as_bytes())
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(matches!(
            parse("NOT-A-CASCADE\n"),
            Err(ModelIoError::Malformed(_))
        ));
        assert!(matches!(
            parse(&format!("{MAGIC}\nwindow 24\nstages 2\n")),
            Err(ModelIoError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_out_of_window_features() {
        assert!(matches!(
            parse(&format!(
                "{MAGIC}\nwindow 24\nstages 1\nstage 1 0.0\nstump two_v 20 20 10 10 0.0 1 1.0\n"
            )),
            Err(ModelIoError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_implausible_stump_count() {
        assert!(matches!(
            parse(&format!(
                "{MAGIC}\nwindow 24\nstages 1\nstage {} 0.0\n",
                usize::MAX
            )),
            Err(ModelIoError::Malformed(_))
        ));
    }

    #[test]
    fn every_line_prefix_of_the_embedded_model_is_malformed() {
        let mut cut = 0;
        for line in PRETRAINED.split_inclusive('\n') {
            let prefix = &PRETRAINED[..cut];
            assert!(
                matches!(parse(prefix), Err(ModelIoError::Malformed(_))),
                "accepted a model cut after {cut} bytes"
            );
            cut += line.len();
        }
        assert_eq!(cut, PRETRAINED.len());
        assert!(parse(PRETRAINED).is_ok());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            Cascade::load("/nonexistent/sdvbs/cascade.txt"),
            Err(ModelIoError::Io(_))
        ));
    }
}
