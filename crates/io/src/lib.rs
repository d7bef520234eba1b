//! Circuit interchange: AIGER (ASCII `.aag` and binary `.aig`) and BLIF
//! readers/writers with lossless document models, conversions to the
//! workspace's [`aig::Aig`] and [`mig::Mig`], and positioned parse
//! errors.
//!
//! This is the subsystem that lets the optimizer touch real-world
//! circuits instead of only in-process generated ones: the `migopt` CLI
//! (crate `cli`) and the table binaries' `--from` flag are built on it.
//!
//! * [`aiger::Aiger`] — lossless AIGER document (both encodings);
//! * [`blif::Blif`] — lossless BLIF document (combinational subset),
//!   stored compactly: each signal name once, tables that refer to
//!   names by index, and every cover row in one byte buffer;
//! * [`ParseError`] — structured errors with line/column or byte
//!   positions; parsers never panic on malformed input;
//! * [`read_mig_path`] / [`write_mig_path`] — extension-dispatched
//!   one-call conversion between files and [`mig::Mig`].
//!
//! # Examples
//!
//! ```
//! use io::{Format, aiger::Aiger, blif::Blif};
//!
//! // A single 2-input AND gate in ASCII AIGER.
//! let text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
//! let doc = Aiger::parse_ascii(text).unwrap();
//! let m = doc.to_mig().unwrap();
//! assert_eq!(m.num_inputs(), 2);
//!
//! // Write the same circuit as BLIF.
//! let blif = Blif::from_mig(&m, "and2");
//! assert!(blif.to_text().contains(".model and2"));
//! assert_eq!(Format::from_path("x.aag".as_ref()), Some(Format::AigerAscii));
//! ```

pub mod aiger;
pub mod blif;
mod error;

pub use error::{ErrorKind, IoError, ParseError, Position};

use mig::Mig;
use std::path::Path;

/// A supported interchange format, chosen by file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// ASCII AIGER (`.aag`).
    AigerAscii,
    /// Binary AIGER (`.aig`).
    AigerBinary,
    /// BLIF (`.blif`).
    Blif,
}

impl Format {
    /// Detects the format from a path's extension (case-insensitive).
    pub fn from_path(path: &Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "aag" => Some(Format::AigerAscii),
            "aig" => Some(Format::AigerBinary),
            "blif" => Some(Format::Blif),
            _ => None,
        }
    }
}

/// Reads a circuit file (`.aag`, `.aig` or `.blif`) into an [`Mig`].
///
/// # Errors
///
/// [`IoError::UnknownFormat`] for unrecognized extensions,
/// [`IoError::Io`] on filesystem failures, [`IoError::Parse`] with a
/// position on malformed content.
pub fn read_mig_path(path: impl AsRef<Path>) -> Result<Mig, IoError> {
    let path = path.as_ref();
    let format = Format::from_path(path)
        .ok_or_else(|| IoError::UnknownFormat(path.display().to_string()))?;
    let mig = match format {
        Format::AigerAscii => {
            let text = std::fs::read_to_string(path)?;
            aiger::Aiger::parse_ascii(&text)?.to_mig()?
        }
        Format::AigerBinary => {
            let bytes = std::fs::read(path)?;
            aiger::Aiger::parse_binary(&bytes)?.to_mig()?
        }
        Format::Blif => {
            let text = std::fs::read_to_string(path)?;
            blif::Blif::parse(&text)?.to_mig()?
        }
    };
    Ok(mig)
}

/// Writes an [`Mig`] to a circuit file, with the format chosen by the
/// path's extension. AIGER targets go through AND/OR majority
/// decomposition ([`aiger::Aiger::from_mig`]); BLIF keeps majority gates
/// as 3-row covers.
///
/// # Errors
///
/// [`IoError::UnknownFormat`] for unrecognized extensions, [`IoError::Io`]
/// on filesystem failures.
pub fn write_mig_path(path: impl AsRef<Path>, mig: &Mig) -> Result<(), IoError> {
    let path = path.as_ref();
    let format = Format::from_path(path)
        .ok_or_else(|| IoError::UnknownFormat(path.display().to_string()))?;
    let model = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("top")
        .to_string();
    match format {
        Format::AigerAscii => {
            std::fs::write(path, aiger::Aiger::from_mig(mig).to_ascii())?;
        }
        Format::AigerBinary => {
            let bytes = aiger::Aiger::from_mig(mig)
                .to_binary()
                .map_err(IoError::Parse)?;
            std::fs::write(path, bytes)?;
        }
        Format::Blif => {
            std::fs::write(path, blif::Blif::from_mig(mig, &model).to_text())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_detection() {
        assert_eq!(
            Format::from_path("a/b.aag".as_ref()),
            Some(Format::AigerAscii)
        );
        assert_eq!(
            Format::from_path("b.AIG".as_ref()),
            Some(Format::AigerBinary)
        );
        assert_eq!(Format::from_path("c.blif".as_ref()), Some(Format::Blif));
        assert_eq!(Format::from_path("d.v".as_ref()), None);
        assert_eq!(Format::from_path("noext".as_ref()), None);
    }

    #[test]
    fn path_roundtrip_through_all_formats() {
        let dir = std::env::temp_dir().join(format!("io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let (s, co) = m.full_adder(a, b, c);
        m.add_output(s);
        m.add_output(co);
        for name in ["t.aag", "t.aig", "t.blif"] {
            let p = dir.join(name);
            write_mig_path(&p, &m).unwrap();
            let back = read_mig_path(&p).unwrap();
            assert_eq!(
                back.output_truth_tables(),
                m.output_truth_tables(),
                "{name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_extension_is_reported() {
        assert!(matches!(
            read_mig_path("/nonexistent/foo.v"),
            Err(IoError::UnknownFormat(_))
        ));
    }
}
